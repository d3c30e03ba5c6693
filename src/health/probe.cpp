#include "health/probe.h"

#include <algorithm>
#include <utility>

#include "sim/trace.h"

namespace viator::health {

// ---- Probe payload codec ---------------------------------------------------

std::vector<std::int64_t> EncodeProbe(
    std::uint64_t probe_id, std::uint64_t round, sim::TimePoint emitted,
    const std::vector<net::NodeId>& waypoints) {
  std::vector<std::int64_t> payload;
  payload.reserve(kProbeHeaderWords + waypoints.size());
  payload.push_back(static_cast<std::int64_t>(probe_id));
  payload.push_back(static_cast<std::int64_t>(round));
  payload.push_back(0);  // itinerary cursor
  payload.push_back(static_cast<std::int64_t>(waypoints.size()));
  payload.push_back(static_cast<std::int64_t>(emitted));
  for (const net::NodeId w : waypoints) {
    payload.push_back(static_cast<std::int64_t>(w));
  }
  return payload;
}

void AppendHop(std::vector<std::int64_t>& payload, const HopSample& hop) {
  payload.push_back(static_cast<std::int64_t>(hop.ship));
  payload.push_back(static_cast<std::int64_t>(hop.arrived_from));
  payload.push_back(static_cast<std::int64_t>(hop.arrival));
  payload.push_back(static_cast<std::int64_t>(hop.queue_bytes));
  payload.push_back(static_cast<std::int64_t>(hop.service_latency_ns));
  payload.push_back(static_cast<std::int64_t>(hop.code_executions));
  payload.push_back(static_cast<std::int64_t>(hop.code_misses));
  payload.push_back(static_cast<std::int64_t>(hop.ttl_remaining));
}

std::size_t ProbeCursor(const std::vector<std::int64_t>& payload) {
  return static_cast<std::size_t>(payload[2]);
}

void SetProbeCursor(std::vector<std::int64_t>& payload, std::size_t cursor) {
  payload[2] = static_cast<std::int64_t>(cursor);
}

std::size_t ProbeWaypointCount(const std::vector<std::int64_t>& payload) {
  return static_cast<std::size_t>(payload[3]);
}

net::NodeId ProbeWaypoint(const std::vector<std::int64_t>& payload,
                          std::size_t index) {
  return static_cast<net::NodeId>(payload[kProbeHeaderWords + index]);
}

std::optional<ProbeRecord> DecodeProbe(
    const std::vector<std::int64_t>& payload) {
  if (payload.size() < kProbeHeaderWords) return std::nullopt;
  const auto waypoint_count = static_cast<std::size_t>(payload[3]);
  if (payload[3] < 0 || payload.size() < kProbeHeaderWords + waypoint_count) {
    return std::nullopt;
  }
  const std::size_t hop_words =
      payload.size() - kProbeHeaderWords - waypoint_count;
  if (hop_words % kHopWords != 0) return std::nullopt;

  ProbeRecord record;
  record.probe_id = static_cast<std::uint64_t>(payload[0]);
  record.round = static_cast<std::uint64_t>(payload[1]);
  record.emitted = static_cast<sim::TimePoint>(payload[4]);
  record.waypoints.reserve(waypoint_count);
  for (std::size_t i = 0; i < waypoint_count; ++i) {
    record.waypoints.push_back(ProbeWaypoint(payload, i));
  }
  record.hops.reserve(hop_words / kHopWords);
  std::size_t at = kProbeHeaderWords + waypoint_count;
  while (at < payload.size()) {
    HopSample hop;
    hop.ship = static_cast<net::NodeId>(payload[at + 0]);
    hop.arrived_from = static_cast<net::NodeId>(payload[at + 1]);
    hop.arrival = static_cast<sim::TimePoint>(payload[at + 2]);
    hop.queue_bytes = static_cast<std::uint64_t>(payload[at + 3]);
    hop.service_latency_ns = static_cast<std::uint64_t>(payload[at + 4]);
    hop.code_executions = static_cast<std::uint64_t>(payload[at + 5]);
    hop.code_misses = static_cast<std::uint64_t>(payload[at + 6]);
    hop.ttl_remaining = static_cast<std::uint32_t>(payload[at + 7]);
    record.hops.push_back(hop);
    at += kHopWords;
  }
  return record;
}

// ---- ProbePlane ------------------------------------------------------------

ProbePlane::ProbePlane(wli::WanderingNetwork& network,
                       const HealthConfig& config, std::uint64_t seed)
    : network_(network),
      config_(config),
      // Private itinerary stream, salted off the scenario seed: probe routes
      // are reproducible yet never consume network/fabric draws.
      rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
  network_.SetProbeHandler(
      [this](wli::Ship& ship, wli::Shuttle shuttle, net::NodeId from) {
        OnProbe(ship, std::move(shuttle), from);
      });
}

void ProbePlane::StartProbes(sim::TimePoint until) {
  if (!config_.enable_probes) return;
  network_.simulator().ScheduleAfter(kProbeInterval, [this, until] {
    RunRound();
    if (network_.simulator().now() + kProbeInterval <= until) {
      StartProbes(until);
    }
  });
}

void ProbePlane::RunRound() {
  Evaluate();
  ++rounds_;
  if (network_.ship(config_.collector) == nullptr) return;
  std::vector<net::NodeId> candidates = ShipNodes();
  std::erase(candidates, config_.collector);
  if (candidates.empty()) return;
  for (std::size_t i = 0; i < kProbesPerRound; ++i) {
    EmitProbe(candidates);
  }
}

void ProbePlane::Evaluate() {
  const sim::TimePoint now = network_.simulator().now();
  registry_.IngestSpans(network_.telemetry().spans());
  ExpirePending(now);
  HandleEvents(detector_.Evaluate(registry_, now));
  registry_.PublishScores(network_.stats());
}

std::vector<net::NodeId> ProbePlane::ShipNodes() const {
  std::vector<net::NodeId> nodes;
  // ForEachShip iterates in node order, so the candidate list (and with it
  // the itinerary RNG consumption) is deterministic.
  const_cast<wli::WanderingNetwork&>(network_).ForEachShip(
      [&nodes](wli::Ship& ship) { nodes.push_back(ship.id()); });
  return nodes;
}

void ProbePlane::EmitProbe(const std::vector<net::NodeId>& candidates) {
  const std::size_t want = std::min(kWaypointsPerProbe, candidates.size());
  if (want == 0) return;
  // Partial Fisher–Yates: `want` distinct waypoints from the plane's RNG.
  std::vector<net::NodeId> pool = candidates;
  std::vector<net::NodeId> waypoints;
  waypoints.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t pick = rng_.Index(pool.size());
    waypoints.push_back(pool[pick]);
    pool[pick] = pool.back();
    pool.pop_back();
  }

  const sim::TimePoint now = network_.simulator().now();
  const std::uint64_t id = next_probe_id_++;
  wli::Shuttle probe;
  probe.header.source = config_.collector;
  probe.header.destination = waypoints.front();
  probe.header.kind = wli::ShuttleKind::kProbe;
  probe.header.flow_id = id;
  probe.header.ttl = kProbeTtl;
  probe.payload = EncodeProbe(id, rounds_, now, waypoints);

  registry_.RecordEmission(waypoints);
  pending_[id] = PendingProbe{now, waypoints};
  ++probes_emitted_;
  network_.stats().GetCounter("health.probes_emitted").Add();
  if (!network_.Dispatch(config_.collector, std::move(probe)).ok()) {
    // First hop refused (no route, link down): lost on the spot.
    registry_.RecordLoss(waypoints);
    pending_.erase(id);
    ++probes_lost_;
    network_.stats().GetCounter("health.probes_lost").Add();
  }
}

void ProbePlane::OnProbe(wli::Ship& ship, wli::Shuttle shuttle,
                         net::NodeId from) {
  // A probe's payload comes from a peer: before any waypoint is read, the
  // waypoint count (word 3) must fit the words after the header and the
  // cursor (word 2) must lie within the itinerary.
  const std::vector<std::int64_t>& words = shuttle.payload;
  if (words.size() < kProbeHeaderWords || words[3] < 0 ||
      static_cast<std::uint64_t>(words[3]) > words.size() - kProbeHeaderWords ||
      words[2] < 0 || words[2] > words[3]) {
    network_.stats().GetCounter("health.probe_malformed").Add();
    return;
  }
  if (shuttle.header.ttl == 0) {
    // The probe dies here; its pending entry will expire into a loss.
    ++probes_ttl_expired_;
    network_.stats().GetCounter("health.probe_ttl_expired").Add();
    return;
  }
  --shuttle.header.ttl;

  const sim::TimePoint now = network_.simulator().now();
  HopSample hop;
  hop.ship = ship.id();
  hop.arrived_from = from;
  hop.arrival = now;
  hop.queue_bytes = network_.fabric().QueuedBytesAt(ship.id());
  // Self-reference: the probe carries the plane's own span-derived service
  // EWMA for this ship, so deposited records are complete in-band documents.
  const auto known = registry_.ships().find(ship.id());
  hop.service_latency_ns =
      known == registry_.ships().end()
          ? 0
          : static_cast<std::uint64_t>(known->second.service_latency_ewma);
  hop.code_executions = ship.code_executions();
  hop.code_misses = ship.code_misses();
  hop.ttl_remaining = shuttle.header.ttl;
  AppendHop(shuttle.payload, hop);

  std::size_t cursor = ProbeCursor(shuttle.payload);
  const std::size_t waypoint_count = ProbeWaypointCount(shuttle.payload);
  if (cursor < waypoint_count &&
      ship.id() == ProbeWaypoint(shuttle.payload, cursor)) {
    SetProbeCursor(shuttle.payload, ++cursor);
  }
  if (cursor >= waypoint_count && ship.id() == config_.collector) {
    Deposit(shuttle, now);
    return;
  }
  shuttle.header.destination = cursor < waypoint_count
                                   ? ProbeWaypoint(shuttle.payload, cursor)
                                   : config_.collector;
  (void)network_.Dispatch(ship.id(), std::move(shuttle));
}

void ProbePlane::Deposit(const wli::Shuttle& shuttle, sim::TimePoint now) {
  const auto record = DecodeProbe(shuttle.payload);
  if (!record) {
    network_.stats().GetCounter("health.probe_malformed").Add();
    return;
  }
  pending_.erase(record->probe_id);
  ++probes_absorbed_;
  network_.stats().GetCounter("health.probes_absorbed").Add();
  registry_.AbsorbProbe(*record, &network_.stats());
  HandleEvents(detector_.CheckRecord(*record, now));
}

void ProbePlane::ExpirePending(sim::TimePoint now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.emitted + kProbeTimeout <= now) {
      registry_.RecordLoss(it->second.waypoints);
      ++probes_lost_;
      network_.stats().GetCounter("health.probes_lost").Add();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void ProbePlane::HandleEvents(const std::vector<HealthEvent>& events) {
  const sim::TimePoint now = network_.simulator().now();
  for (const HealthEvent& event : events) {
    network_.stats().GetCounter("health.events").Add();
    network_.stats()
        .GetCounter("health.events." +
                    std::string(HealthEventKindName(event.kind)))
        .Add();
    network_.trace().Log(now, sim::TraceLevel::kInfo, "health",
                         std::string(HealthEventKindName(event.kind)) +
                             " ship " + std::to_string(event.ship) + ": " +
                             event.detail);
  }
}

HealthReport ProbePlane::BuildReport() const {
  HealthReport report;
  for (const auto& [node, state] : registry_.ships()) {
    ShipReportEntry entry;
    entry.ship = node;
    entry.score = registry_.ScoreOf(node);
    entry.queue_ewma = state.queue_ewma;
    entry.hop_latency_ewma = state.hop_latency_ewma;
    entry.service_latency_ewma = state.service_latency_ewma;
    entry.samples = state.samples;
    entry.expected_visits = state.expected_visits;
    entry.missed_visits = state.missed_visits;
    entry.code_executions = state.code_executions;
    entry.code_misses = state.code_misses;
    report.ships.push_back(entry);
  }
  report.events = detector_.events();
  report.summary.probes_emitted = probes_emitted_;
  report.summary.probes_absorbed = probes_absorbed_;
  report.summary.probes_lost = probes_lost_;
  report.summary.hops_observed = registry_.hops_observed();
  report.summary.spans_ingested = registry_.spans_ingested();
  report.summary.events = detector_.events().size();
  return report;
}

}  // namespace viator::health
