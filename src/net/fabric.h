// The transmission engine: moves Frames across Topology links under the
// Simulator clock, modelling per-direction serialization, queueing (drop-tail
// on byte capacity), propagation latency and i.i.d. loss.
//
// Upper layers register one receive handler per node; everything above the
// fabric (shuttle dispatch, routing, services) is driven from those handler
// invocations.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "base/status.h"
#include "net/topology.h"
#include "net/types.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "telemetry/latency_plane.h"
#include "telemetry/mem_counters.h"

namespace viator::net {

class Fabric {
 public:
  /// Delivery callback. The frame is the handler's to consume: it may move
  /// the payload out (the shuttle data path does, saving a deep copy per
  /// hop); the fabric never looks at a frame again after handing it over.
  using ReceiveHandler = std::function<void(Frame&)>;

  /// The fabric borrows the simulator, topology and stats registry; all must
  /// outlive it. `rng` seeds the loss process.
  Fabric(sim::Simulator& simulator, Topology& topology, Rng rng,
         sim::StatsRegistry& stats);

  /// Installs the receive callback for a node (replacing any previous one).
  void SetReceiveHandler(NodeId node, ReceiveHandler handler);

  /// Queues `frame` for transmission on the direct up link from frame.from
  /// to frame.to. Fails fast (kNotFound) when no up link exists and
  /// kResourceExhausted when the transmit queue would overflow; both count
  /// as drops in the stats.
  Status Send(Frame frame);

  /// Sends a copy of `frame` to every current neighbor of `node` (frame.from
  /// and frame.to are overwritten). Returns the number of copies queued.
  std::size_t Broadcast(NodeId node, Frame frame);

  /// Bytes that have finished serialization per link (both directions),
  /// indexed by LinkId. Used by the fission/multicast experiments to report
  /// per-link load.
  const std::vector<std::uint64_t>& link_bytes() const { return link_bytes_; }

  /// Bytes currently queued for transmission *from* `node` across all of
  /// its incident links (the ship-visible egress backlog).
  std::uint64_t QueuedBytesAt(NodeId node) const;

  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t next_frame_id() const { return next_frame_id_; }

  /// The loss-process RNG, exposed for snapshot/restore (genesis): the loss
  /// stream must resume exactly for deterministic replay.
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }

  /// Binds the latency lane this fabric attributes per-hop queue/transit
  /// stages to and closes lost flights against (nullptr = unbound, every
  /// probe a no-op — raw fabrics in transport tests stay lane-free). The
  /// lane must outlive the fabric. Observability-only: no transmission
  /// decision ever reads it.
  void BindLatencyLane(telemetry::lat::Lane* lane) { lat_lane_ = lane; }

  /// Snapshot fields (the genesis fabric section): transmission accounting,
  /// the loss-RNG stream and per-link byte counts. Per-direction queue
  /// state is transient in-flight detail: snapshots are quiescent and a
  /// restored fabric rebuilds it lazily, empty.
  template <class A>
  void Visit(A& a) {
    a.U64(0x01, frames_delivered_);
    a.U64(0x02, frames_dropped_);
    a.U64(0x03, bytes_sent_);
    a.U64(0x04, next_frame_id_);
    const bool has_rng = a.Record(0x05, rng_);
    if constexpr (A::kLoading) {
      if (!has_rng) a.Fail(InvalidArgument("fabric section missing RNG state"));
    }
    a.Repeated(0x06, link_bytes_);
    if constexpr (A::kLoading) ChargeLinkState();
  }

 private:
  struct Direction {
    sim::TimePoint busy_until = 0;
    std::uint64_t queued_bytes = 0;
  };

  void EnsureLinkState(LinkId id);
  // Mirrors the two per-link arrays' capacity into link_state_bytes_.
  void ChargeLinkState() {
    link_state_bytes_.Set(directions_.capacity() * sizeof(directions_[0]) +
                          link_bytes_.capacity() * sizeof(link_bytes_[0]));
  }

  sim::Simulator& simulator_;
  Topology& topology_;
  Rng rng_;
  sim::StatsRegistry& stats_;
  // Hot-path metrics resolved once at construction: Send() runs per frame,
  // and registry name lookups would otherwise dominate its fixed cost.
  sim::Counter& drop_no_link_;
  sim::Counter& drop_queue_;
  sim::Counter& frames_sent_;
  sim::Counter& frames_lost_;
  sim::Histogram& queue_delay_ns_;
  sim::Histogram& hop_latency_ns_;
  telemetry::lat::Lane* lat_lane_ = nullptr;
  std::vector<ReceiveHandler> handlers_;
  std::vector<std::array<Direction, 2>> directions_;  // per link: a->b, b->a
  std::vector<std::uint64_t> link_bytes_;
  telemetry::mem::ChargedBytes<telemetry::mem::Domain::kFabric>
      link_state_bytes_;
  std::uint64_t next_frame_id_ = 1;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace viator::net
