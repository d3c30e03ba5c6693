// Probe capsules: in-band network telemetry for the Wandering Network.
//
// A probe is a kProbe shuttle whose payload is a self-describing record: a
// fixed header (probe id, round, itinerary cursor, emit time, waypoint
// list) followed by one fixed-width block per hop, appended in place as the
// capsule wanders — the INT pattern, done with capsules instead of switch
// ASICs. The ProbePlane emits probes on a deterministic schedule, handles
// every probe hop (ships hand probes over before any workload processing),
// deposits finished records into the HealthRegistry and runs the
// AnomalyDetector.
//
// Determinism neutrality, by construction:
//  - probes draw waypoints from the plane's own RNG (salted fork of the
//    scenario seed), never from the network or fabric streams;
//  - kProbe shuttles have WireSize() 0 and ride telemetry frames, so they
//    never occupy queue bytes, never delay serialization and never consume
//    fabric loss draws;
//  - ships intercept probes before TTL/feedback/counter accounting;
//  - probes bypass next-hop choosers (routing services see no probe).
// A run with probes enabled therefore makes the exact same simulation
// decisions as the same seed with probes disabled.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "base/rng.h"
#include "core/wandering_network.h"
#include "health/health.h"
#include "health/report.h"

namespace viator::health {

// ---- Probe payload codec ---------------------------------------------------
// Layout (int64 words):
//   [0] probe id        [1] round            [2] itinerary cursor
//   [3] waypoint count  [4] emit time (ns)   [5..5+n) waypoints
//   then kHopWords-wide hop blocks: ship, arrived_from, arrival ns,
//   queue bytes, service EWMA ns, code executions, code misses, ttl left.

inline constexpr std::size_t kProbeHeaderWords = 5;
inline constexpr std::size_t kHopWords = 8;

std::vector<std::int64_t> EncodeProbe(std::uint64_t probe_id,
                                      std::uint64_t round,
                                      sim::TimePoint emitted,
                                      const std::vector<net::NodeId>& waypoints);

/// Appends one hop block in place (the per-hop INT write).
void AppendHop(std::vector<std::int64_t>& payload, const HopSample& hop);

/// Decodes a full record; nullopt on malformed payloads.
std::optional<ProbeRecord> DecodeProbe(const std::vector<std::int64_t>& payload);

/// Itinerary accessors used mid-flight.
std::size_t ProbeCursor(const std::vector<std::int64_t>& payload);
void SetProbeCursor(std::vector<std::int64_t>& payload, std::size_t cursor);
std::size_t ProbeWaypointCount(const std::vector<std::int64_t>& payload);
net::NodeId ProbeWaypoint(const std::vector<std::int64_t>& payload,
                          std::size_t index);

// ---- ProbePlane ------------------------------------------------------------

/// Owns the probe schedule, the HealthRegistry and the AnomalyDetector for
/// one WanderingNetwork. Construction installs the network's probe handler;
/// nothing runs until StartProbes() (and with enable_probes false, never).
class ProbePlane {
 public:
  /// Probe schedule: every kProbeInterval, kProbesPerRound capsules are
  /// emitted, each wandering through kWaypointsPerProbe random ships before
  /// returning to the collector.
  static constexpr sim::Duration kProbeInterval = 50 * sim::kMillisecond;
  static constexpr std::size_t kProbesPerRound = 4;
  static constexpr std::size_t kWaypointsPerProbe = 2;
  static constexpr std::uint8_t kProbeTtl = 64;
  /// A pending probe older than this counts as lost; its waypoints accrue
  /// missed visits (the loss-ratio rule detects dead/flaky ships).
  static constexpr sim::Duration kProbeTimeout = 200 * sim::kMillisecond;

  /// `seed` is the scenario seed; the plane salts it for its private RNG so
  /// probe itineraries never perturb (or correlate with) network draws.
  ProbePlane(wli::WanderingNetwork& network, const HealthConfig& config,
             std::uint64_t seed);

  ProbePlane(const ProbePlane&) = delete;
  ProbePlane& operator=(const ProbePlane&) = delete;

  /// Schedules RunRound() every kProbeInterval until `until` (no-op when
  /// probes are disabled).
  void StartProbes(sim::TimePoint until);

  /// One round: ingest new spans, expire lost probes, evaluate anomaly
  /// rules, then emit this round's probes. Also callable directly (tests,
  /// tools) — rounds are deterministic functions of prior state.
  void RunRound();

  /// Evaluation half of RunRound() without emitting: used at end of run so
  /// the final report reflects every deposited record.
  void Evaluate();

  HealthRegistry& registry() { return registry_; }
  const HealthRegistry& registry() const { return registry_; }
  AnomalyDetector& detector() { return detector_; }
  const AnomalyDetector& detector() const { return detector_; }
  const HealthConfig& config() const { return config_; }

  std::uint64_t probes_emitted() const { return probes_emitted_; }
  std::uint64_t probes_absorbed() const { return probes_absorbed_; }
  std::uint64_t probes_lost() const { return probes_lost_; }
  std::uint64_t rounds() const { return rounds_; }
  /// Probes in flight (emitted, not yet deposited or expired). Genesis
  /// captures require this to be zero, like parked shuttles.
  std::size_t pending_count() const { return pending_.size(); }

  /// Snapshot of scores, events and counters for export (report.h).
  HealthReport BuildReport() const;

  /// Snapshot fields (genesis HealthAdapter): the itinerary RNG stream, ids,
  /// counters and the pending set, then the registry and the detector, so
  /// one section restores the whole health plane.
  template <class A>
  void Visit(A& a) {
    rng_.Visit(a);
    a.U64(0x02, next_probe_id_);
    a.U64(0x03, rounds_);
    a.U64(0x04, probes_emitted_);
    a.U64(0x05, probes_absorbed_);
    a.U64(0x06, probes_lost_);
    a.U64(0x07, probes_ttl_expired_);
    a.Each(0x08, pending_, [](auto& r, auto& probe_id, auto& pending) {
      r.U64(0x01, probe_id);
      r.U64(0x02, pending.emitted);
      r.Repeated(0x03, pending.waypoints);
    });
    registry_.Visit(a);
    detector_.Visit(a);
  }

 private:
  void OnProbe(wli::Ship& ship, wli::Shuttle shuttle, net::NodeId from);
  void Deposit(const wli::Shuttle& shuttle, sim::TimePoint now);
  void EmitProbe(const std::vector<net::NodeId>& candidates);
  void ExpirePending(sim::TimePoint now);
  void HandleEvents(const std::vector<HealthEvent>& events);
  std::vector<net::NodeId> ShipNodes() const;

  wli::WanderingNetwork& network_;
  HealthConfig config_;
  Rng rng_;
  HealthRegistry registry_;
  AnomalyDetector detector_;

  struct PendingProbe {
    sim::TimePoint emitted = 0;
    std::vector<net::NodeId> waypoints;
  };
  std::map<std::uint64_t, PendingProbe> pending_;

  std::uint64_t next_probe_id_ = 1;
  std::uint64_t rounds_ = 0;
  std::uint64_t probes_emitted_ = 0;
  std::uint64_t probes_absorbed_ = 0;
  std::uint64_t probes_lost_ = 0;
  std::uint64_t probes_ttl_expired_ = 0;
};

}  // namespace viator::health
