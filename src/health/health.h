// Self-Referential Health Plane: streaming health scoring and anomaly
// detection over in-band probe measurements.
//
// The Self-Reference Principle requires the network to observe and describe
// itself; the Multidimensional Feedback Principle requires those
// observations to feed back into its evolution. The health plane closes
// that loop: probe capsules (probe.h) wander the network recording per-hop
// measurements, the HealthRegistry folds the deposited records into per-ship
// EWMAs and deterministic quantile sketches (sim::Histogram buckets), and
// the AnomalyDetector raises structured HealthEvents from rule + z-score
// checks over those series.
//
// Everything here is bit-for-bit deterministic: same seed, same probes, same
// scores, same events. Wall-clock never enters any health series.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/types.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "telemetry/span.h"

namespace viator::health {

struct HealthConfig {
  /// Master switch. Off (the default) means no probes are ever emitted and
  /// the plane costs one branch per shuttle receive — the seed behaves
  /// identically to a build without the health plane.
  bool enable_probes = false;

  /// Ship that emits probes and collects deposited records.
  net::NodeId collector = 0;
};

enum class HealthEventKind : std::uint8_t {
  kDegradedShip = 0,  // slow, congested or unreachable ship
  kStarvedEe,         // code misses accumulate but nothing ever executes
  kRoutingLoop,       // one probe crossed the same ship repeatedly
  kMemGrowth,         // a memory domain grew monotonically past its slack
  kSloBurn,           // a latency SLO burned for consecutive windows
  kKindCount,
};

std::string_view HealthEventKindName(HealthEventKind kind);
std::optional<HealthEventKind> HealthEventKindFromName(std::string_view name);

/// One structured anomaly. `value` is the measured quantity that tripped the
/// rule, `threshold` the bound it crossed.
struct HealthEvent {
  sim::TimePoint time = 0;
  HealthEventKind kind = HealthEventKind::kDegradedShip;
  net::NodeId ship = net::kInvalidNode;
  double value = 0.0;
  double threshold = 0.0;
  std::string detail;
};

/// One decoded per-hop measurement (probe payload codec in probe.h).
struct HopSample {
  net::NodeId ship = net::kInvalidNode;
  net::NodeId arrived_from = net::kInvalidNode;
  sim::TimePoint arrival = 0;
  std::uint64_t queue_bytes = 0;        // fabric tx bytes queued at the ship
  std::uint64_t service_latency_ns = 0; // registry service EWMA at hop time
  std::uint64_t code_executions = 0;    // ship counters at hop time
  std::uint64_t code_misses = 0;
  std::uint32_t ttl_remaining = 0;
};

/// One deposited probe record.
struct ProbeRecord {
  std::uint64_t probe_id = 0;
  std::uint64_t round = 0;
  sim::TimePoint emitted = 0;
  std::vector<net::NodeId> waypoints;
  std::vector<HopSample> hops;
};

/// Streaming per-ship health state: EWMAs for the score, Histograms (the
/// deterministic fixed-bucket quantile sketch) for the distributions.
class HealthRegistry {
 public:
  /// Streaming-score parameters. Scores are the product of three factors in
  /// (0, 1]: queue pressure, hop latency and probe-visit reachability (see
  /// docs/HEALTH.md for the exact formula).
  static constexpr double kEwmaAlpha = 0.2;
  static constexpr double kQueueScaleBytes = 4096.0;
  static constexpr double kLatencyScaleNs = 2.0e7;

  struct ShipHealth {
    double queue_ewma = 0.0;
    double hop_latency_ewma = 0.0;
    double service_latency_ewma = 0.0;
    std::uint64_t samples = 0;           // hop samples folded in
    std::uint64_t service_samples = 0;   // spans folded in
    std::uint64_t expected_visits = 0;   // times picked as a probe waypoint
    std::uint64_t missed_visits = 0;     // waypoint visits of lost probes
    std::uint64_t code_executions = 0;   // latest probe-observed counters
    std::uint64_t code_misses = 0;
    sim::Histogram hop_latency_ns;
    sim::Histogram queue_bytes;
  };

  /// A probe was emitted with these waypoints (visit expectations).
  void RecordEmission(const std::vector<net::NodeId>& waypoints);

  /// A probe record was deposited at the collector: fold every hop sample
  /// into the per-ship series. With `mirror` set, network-wide distributions
  /// ("health.hop_latency_ns", "health.queue_bytes") are also recorded there
  /// so the standard exporters see them.
  void AbsorbProbe(const ProbeRecord& record,
                   sim::StatsRegistry* mirror = nullptr);

  /// A pending probe timed out: its waypoints accrue missed visits.
  void RecordLoss(const std::vector<net::NodeId>& waypoints);

  /// Folds spans committed since the last call into per-ship service-latency
  /// EWMAs — the self-referential step: the observability plane feeds on the
  /// network's own span stream. Assumes the collector is not Clear()ed
  /// between calls (the cursor resets if it shrinks).
  void IngestSpans(const telemetry::SpanCollector& spans);

  /// Streaming health score in (0, 1]; 1.0 for ships never observed.
  double ScoreOf(net::NodeId ship) const;

  const std::map<net::NodeId, ShipHealth>& ships() const { return ships_; }

  std::uint64_t hops_observed() const { return hops_observed_; }
  std::uint64_t spans_ingested() const { return spans_ingested_; }

  /// Writes per-ship score gauges ("health.score.<node>") and the tracked
  /// ship count into `stats`, making scores visible to every exporter.
  void PublishScores(sim::StatsRegistry& stats) const;

  /// Snapshot fields (inside the genesis health section): every ship's
  /// series, EWMAs and histogram sketches, then the ingest counters.
  template <class A>
  void Visit(A& a) {
    a.Each(0x09, ships_, [](auto& r, auto& node, auto& ship) {
      r.U64(0x01, node);
      r.F64(0x02, ship.queue_ewma);
      r.F64(0x03, ship.hop_latency_ewma);
      r.F64(0x04, ship.service_latency_ewma);
      r.U64(0x05, ship.samples);
      r.U64(0x06, ship.service_samples);
      r.U64(0x07, ship.expected_visits);
      r.U64(0x08, ship.missed_visits);
      r.U64(0x09, ship.code_executions);
      r.U64(0x0A, ship.code_misses);
      r.Record(0x0B, [&](auto& n) {
        ship.hop_latency_ns.Visit(n, kHistogramTags);
      });
      r.Record(0x0C, [&](auto& n) {
        ship.queue_bytes.Visit(n, kHistogramTags);
      });
    });
    a.U64(0x0A, hops_observed_);
    a.U64(0x0B, spans_ingested_);
    a.U64(0x0C, span_cursor_);
  }

 private:
  static constexpr sim::Histogram::Tags kHistogramTags = {
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};

  static void Ewma(double& acc, double sample, std::uint64_t prior_count);

  std::map<net::NodeId, ShipHealth> ships_;
  std::uint64_t hops_observed_ = 0;
  std::uint64_t spans_ingested_ = 0;
  std::size_t span_cursor_ = 0;  // spans consumed from the collector
};

/// Deterministic rule + z-score engine over the registry's health series.
/// Raised events accumulate in `events()`; an active-set keeps one event per
/// (kind, ship) condition episode (the flag clears when the condition does).
class AnomalyDetector {
 public:
  /// Anomaly rules.
  static constexpr double kZThreshold = 3.0;          // hop-latency z-score
  static constexpr double kDegradedScore = 0.5;       // absolute score floor
  static constexpr double kLossRatioThreshold = 0.5;  // missed/expected visits
  static constexpr std::uint64_t kMinSamples = 8;  // hop samples before score/z
  static constexpr std::uint64_t kMinExpectedVisits = 6;  // before loss rule
  static constexpr std::size_t kLoopRepeats = 3;  // same ship in one record

  /// Immediate per-record rule: routing-loop suspicion (one ship visited
  /// more than kLoopRepeats times by a single probe).
  std::vector<HealthEvent> CheckRecord(const ProbeRecord& record,
                                       sim::TimePoint now);

  /// Periodic rules over the whole registry: hop-latency z-score, absolute
  /// score floor, probe-loss ratio (degraded ship) and starved-EE detection.
  /// Returns only the events newly raised by this evaluation.
  std::vector<HealthEvent> Evaluate(const HealthRegistry& registry,
                                    sim::TimePoint now);

  const std::vector<HealthEvent>& events() const { return events_; }

  /// Snapshot fields (inside the genesis health section, after the
  /// registry's): the event log, the active condition episodes and each
  /// ship's code counters at the previous Evaluate().
  template <class A>
  void Visit(A& a) {
    a.Each(0x0D, events_, [](auto& r, auto& event) {
      r.U64(0x01, event.time);
      r.Enum(0x02, event.kind, HealthEventKind::kKindCount,
             "health event kind");
      r.U64(0x03, event.ship);
      r.F64(0x04, event.value);
      r.F64(0x05, event.threshold);
      r.Str(0x06, event.detail);
    });
    a.Each(0x0E, active_, [](auto& r, auto& episode) {
      r.U32(0x01, episode.first);
      r.U64(0x02, episode.second);
    });
    a.Each(0x0F, prev_code_counters_, [](auto& r, auto& node, auto& counters) {
      r.U64(0x01, node);
      r.U64(0x02, counters.first);
      r.U64(0x03, counters.second);
    });
  }

 private:
  /// Raises (kind, ship) unless its episode is already active. Returns true
  /// when a new event was appended to both `events_` and `fresh`.
  bool Raise(HealthEventKind kind, net::NodeId ship, sim::TimePoint now,
             double value, double threshold, std::string detail,
             std::vector<HealthEvent>& fresh);
  void Clear(HealthEventKind kind, net::NodeId ship);

  std::vector<HealthEvent> events_;
  // Active (kind, ship) condition episodes.
  std::set<std::pair<std::uint8_t, net::NodeId>> active_;
  std::map<net::NodeId, std::pair<std::uint64_t, std::uint64_t>>
      prev_code_counters_;
};

}  // namespace viator::health
