#include "net/fabric.h"

#include <algorithm>
#include <utility>

namespace viator::net {

Fabric::Fabric(sim::Simulator& simulator, Topology& topology, Rng rng,
               sim::StatsRegistry& stats)
    : simulator_(simulator),
      topology_(topology),
      rng_(rng),
      stats_(stats),
      drop_no_link_(stats.GetCounter("fabric.drop_no_link")),
      drop_queue_(stats.GetCounter("fabric.drop_queue")),
      frames_sent_(stats.GetCounter("fabric.frames_sent")),
      frames_lost_(stats.GetCounter("fabric.frames_lost")),
      queue_delay_ns_(stats.GetHistogram("fabric.queue_delay_ns")),
      hop_latency_ns_(stats.GetHistogram("fabric.hop_latency_ns")) {}

void Fabric::SetReceiveHandler(NodeId node, ReceiveHandler handler) {
  if (handlers_.size() <= node) handlers_.resize(node + 1);
  handlers_[node] = std::move(handler);
}

void Fabric::EnsureLinkState(LinkId id) {
  if (directions_.size() > id && link_bytes_.size() > id) return;
  // The first growth makes room for every link the topology has now, so
  // the arrays do not double their way up to it; links added later grow
  // them as usual. Grow the two arrays independently: a state restore may
  // have populated link_bytes_ beyond directions_, and a joint resize would
  // truncate it.
  const std::size_t links = topology_.link_count();
  if (directions_.capacity() == 0) directions_.reserve(links);
  if (link_bytes_.capacity() == 0) link_bytes_.reserve(links);
  if (directions_.size() <= id) directions_.resize(id + 1);
  if (link_bytes_.size() <= id) link_bytes_.resize(id + 1, 0);
  ChargeLinkState();
}

Status Fabric::Send(Frame frame) {
  const auto link_id = topology_.FindLink(frame.from, frame.to);
  if (!link_id.has_value() || !topology_.IsNodeUp(frame.from) ||
      !topology_.IsNodeUp(frame.to)) {
    ++frames_dropped_;
    drop_no_link_.Add();
    VIATOR_LAT_LOST(lat_lane_, frame.lat_id, simulator_.now());
    return NotFound("no up link for hop");
  }
  EnsureLinkState(*link_id);
  const Link& link = topology_.link(*link_id);
  const int dir_index = link.a == frame.from ? 0 : 1;
  Direction& dir = directions_[*link_id][dir_index];

  if (dir.queued_bytes + frame.size_bytes > link.config.queue_capacity_bytes) {
    ++frames_dropped_;
    drop_queue_.Add();
    VIATOR_LAT_LOST(lat_lane_, frame.lat_id, simulator_.now());
    return ResourceExhausted("tx queue overflow");
  }

  frame.frame_id = next_frame_id_++;
  const double ser_seconds =
      static_cast<double>(frame.size_bytes) * 8.0 / link.config.bandwidth_bps;
  const sim::Duration ser = sim::FromSeconds(ser_seconds);
  const sim::TimePoint start = std::max(simulator_.now(), dir.busy_until);
  const sim::TimePoint depart = start + ser;
  dir.busy_until = depart;
  dir.queued_bytes += frame.size_bytes;

  queue_delay_ns_.Record(static_cast<double>(start - simulator_.now()));
  if (frame.lat_id != 0) {
    VIATOR_LAT_QUEUE(lat_lane_, frame.lat_class,
                     static_cast<std::uint64_t>(start - simulator_.now()));
  }
  bytes_sent_ += frame.size_bytes;
  frames_sent_.Add();

  const LinkId lid = *link_id;
  const sim::Duration latency = link.config.latency;
  const double loss = link.config.loss_probability;
  const std::uint32_t size = frame.size_bytes;
  const sim::TimePoint send_time = simulator_.now();

  simulator_.ScheduleAt(depart, [this, lid, dir_index, size] {
    directions_[lid][dir_index].queued_bytes -= size;
    link_bytes_[lid] += size;
  });

  // Telemetry frames (health probes) never consume a loss draw: the loss
  // stream must advance identically whether or not the measurement plane is
  // active. They still pay propagation latency and the delivery-time link
  // re-check below, so probes observe outages like real traffic does.
  const bool lost = frame.telemetry ? false : rng_.Bernoulli(loss);
  if (lost) {
    ++frames_dropped_;
    frames_lost_.Add();
    VIATOR_LAT_LOST(lat_lane_, frame.lat_id, simulator_.now());
    return OkStatus();  // loss is a channel property, not a caller error
  }

  simulator_.ScheduleAt(
      depart + latency,
      [this, frame = std::move(frame), lid, send_time]() mutable {
        // Re-check link/node state at delivery time: a link that went down
        // mid-flight loses the frame (models carrier loss).
        if (!topology_.IsLinkUp(lid) || !topology_.IsNodeUp(frame.to)) {
          ++frames_dropped_;
          frames_lost_.Add();
          VIATOR_LAT_LOST(lat_lane_, frame.lat_id, simulator_.now());
          return;
        }
        ++frames_delivered_;
        hop_latency_ns_.Record(static_cast<double>(simulator_.now() - send_time));
        if (frame.lat_id != 0) {
          VIATOR_LAT_HOP(lat_lane_, frame.lat_class,
                         static_cast<std::uint64_t>(simulator_.now() -
                                                    send_time));
        }
        if (frame.to < handlers_.size() && handlers_[frame.to]) {
          handlers_[frame.to](frame);
        }
      });
  return OkStatus();
}

std::uint64_t Fabric::QueuedBytesAt(NodeId node) const {
  std::uint64_t total = 0;
  for (LinkId id : topology_.IncidentLinks(node)) {
    if (id >= directions_.size()) continue;
    const Link& link = topology_.link(id);
    const int dir_index = link.a == node ? 0 : 1;
    total += directions_[id][dir_index].queued_bytes;
  }
  return total;
}

std::size_t Fabric::Broadcast(NodeId node, Frame frame) {
  std::size_t sent = 0;
  for (NodeId neighbor : topology_.Neighbors(node)) {
    Frame copy = frame;
    copy.from = node;
    copy.to = neighbor;
    if (Send(std::move(copy)).ok()) ++sent;
  }
  return sent;
}

}  // namespace viator::net
