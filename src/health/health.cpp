#include "health/health.h"

#include <algorithm>
#include <cmath>

namespace viator::health {

std::string_view HealthEventKindName(HealthEventKind kind) {
  switch (kind) {
    case HealthEventKind::kDegradedShip: return "degraded-ship";
    case HealthEventKind::kStarvedEe: return "starved-ee";
    case HealthEventKind::kRoutingLoop: return "routing-loop";
    case HealthEventKind::kMemGrowth: return "mem_growth";
    case HealthEventKind::kSloBurn: return "slo_burn";
    case HealthEventKind::kKindCount: break;
  }
  return "?";
}

std::optional<HealthEventKind> HealthEventKindFromName(std::string_view name) {
  for (std::uint8_t k = 0;
       k < static_cast<std::uint8_t>(HealthEventKind::kKindCount); ++k) {
    const auto kind = static_cast<HealthEventKind>(k);
    if (HealthEventKindName(kind) == name) return kind;
  }
  return std::nullopt;
}

// ---- HealthRegistry --------------------------------------------------------

void HealthRegistry::Ewma(double& acc, double sample,
                          std::uint64_t prior_count) {
  // First sample seeds the EWMA exactly; later samples decay toward it.
  acc = prior_count == 0 ? sample : acc + kEwmaAlpha * (sample - acc);
}

void HealthRegistry::RecordEmission(const std::vector<net::NodeId>& waypoints) {
  for (const net::NodeId w : waypoints) ++ships_[w].expected_visits;
}

void HealthRegistry::AbsorbProbe(const ProbeRecord& record,
                                 sim::StatsRegistry* mirror) {
  sim::TimePoint prev = record.emitted;
  for (const HopSample& hop : record.hops) {
    ShipHealth& ship = ships_[hop.ship];
    const double hop_latency =
        static_cast<double>(hop.arrival >= prev ? hop.arrival - prev : 0);
    const double queue = static_cast<double>(hop.queue_bytes);
    Ewma(ship.hop_latency_ewma, hop_latency, ship.samples);
    Ewma(ship.queue_ewma, queue, ship.samples);
    ship.hop_latency_ns.Record(hop_latency);
    ship.queue_bytes.Record(queue);
    if (mirror != nullptr) {
      mirror->GetHistogram("health.hop_latency_ns").Record(hop_latency);
      mirror->GetHistogram("health.queue_bytes").Record(queue);
    }
    ship.code_executions = hop.code_executions;
    ship.code_misses = hop.code_misses;
    ++ship.samples;
    ++hops_observed_;
    prev = hop.arrival;
  }
}

void HealthRegistry::RecordLoss(const std::vector<net::NodeId>& waypoints) {
  for (const net::NodeId w : waypoints) ++ships_[w].missed_visits;
}

void HealthRegistry::IngestSpans(const telemetry::SpanCollector& spans) {
  const auto& all = spans.spans();
  if (span_cursor_ > all.size()) span_cursor_ = 0;  // collector was cleared
  for (; span_cursor_ < all.size(); ++span_cursor_) {
    const telemetry::SpanRecord& span = all[span_cursor_];
    ShipHealth& ship = ships_[static_cast<net::NodeId>(span.ship)];
    const double duration =
        static_cast<double>(span.end >= span.start ? span.end - span.start : 0);
    Ewma(ship.service_latency_ewma, duration, ship.service_samples);
    ++ship.service_samples;
    ++spans_ingested_;
  }
}

double HealthRegistry::ScoreOf(net::NodeId ship) const {
  const auto it = ships_.find(ship);
  if (it == ships_.end()) return 1.0;
  const ShipHealth& s = it->second;
  const double queue_factor = 1.0 / (1.0 + s.queue_ewma / kQueueScaleBytes);
  const double latency_factor =
      1.0 / (1.0 + s.hop_latency_ewma / kLatencyScaleNs);
  const double reach_factor =
      s.expected_visits == 0
          ? 1.0
          : 1.0 - static_cast<double>(s.missed_visits) /
                      static_cast<double>(s.expected_visits);
  return queue_factor * latency_factor * std::max(0.0, reach_factor);
}

void HealthRegistry::PublishScores(sim::StatsRegistry& stats) const {
  for (const auto& [node, state] : ships_) {
    stats.GetGauge("health.score." + std::to_string(node)).Set(ScoreOf(node));
  }
  stats.GetGauge("health.ships_tracked")
      .Set(static_cast<double>(ships_.size()));
}

// ---- AnomalyDetector -------------------------------------------------------

bool AnomalyDetector::Raise(HealthEventKind kind, net::NodeId ship,
                            sim::TimePoint now, double value, double threshold,
                            std::string detail,
                            std::vector<HealthEvent>& fresh) {
  if (!active_.insert({static_cast<std::uint8_t>(kind), ship}).second) {
    return false;  // episode already reported
  }
  HealthEvent event;
  event.time = now;
  event.kind = kind;
  event.ship = ship;
  event.value = value;
  event.threshold = threshold;
  event.detail = std::move(detail);
  events_.push_back(event);
  fresh.push_back(std::move(event));
  return true;
}

void AnomalyDetector::Clear(HealthEventKind kind, net::NodeId ship) {
  active_.erase({static_cast<std::uint8_t>(kind), ship});
}

std::vector<HealthEvent> AnomalyDetector::CheckRecord(
    const ProbeRecord& record, sim::TimePoint now) {
  std::vector<HealthEvent> fresh;
  std::map<net::NodeId, std::size_t> visits;
  for (const HopSample& hop : record.hops) ++visits[hop.ship];
  for (const auto& [ship, count] : visits) {
    if (count > kLoopRepeats) {
      Raise(HealthEventKind::kRoutingLoop, ship, now,
            static_cast<double>(count), static_cast<double>(kLoopRepeats),
            "probe " + std::to_string(record.probe_id) + " crossed ship " +
                std::to_string(ship) + " " + std::to_string(count) + " times",
            fresh);
    }
  }
  return fresh;
}

std::vector<HealthEvent> AnomalyDetector::Evaluate(
    const HealthRegistry& registry, sim::TimePoint now) {
  std::vector<HealthEvent> fresh;
  const auto& ships = registry.ships();

  // Network-wide hop-latency distribution for the z-score rule.
  double mean = 0.0, m2 = 0.0;
  std::uint64_t n = 0;
  for (const auto& [node, s] : ships) {
    if (s.samples < kMinSamples) continue;
    ++n;
    const double delta = s.hop_latency_ewma - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (s.hop_latency_ewma - mean);
  }
  const double stddev = n > 1 ? std::sqrt(m2 / static_cast<double>(n - 1)) : 0.0;

  for (const auto& [node, s] : ships) {
    bool degraded = false;
    // Rule 1: hop-latency z-score against the network's own distribution.
    if (s.samples >= kMinSamples && stddev > 1e-9) {
      const double z = (s.hop_latency_ewma - mean) / stddev;
      if (z > kZThreshold) {
        degraded = true;
        Raise(HealthEventKind::kDegradedShip, node, now, z, kZThreshold,
              "hop latency z-score " + std::to_string(z), fresh);
      }
    }
    // Rule 2: probe-loss ratio — probes that name this ship as a waypoint
    // keep vanishing (dead or flaky ship / links).
    if (s.expected_visits >= kMinExpectedVisits) {
      const double ratio = static_cast<double>(s.missed_visits) /
                           static_cast<double>(s.expected_visits);
      if (ratio >= kLossRatioThreshold) {
        degraded = true;
        Raise(HealthEventKind::kDegradedShip, node, now, ratio,
              kLossRatioThreshold,
              "probe loss ratio " + std::to_string(ratio) + " (" +
                  std::to_string(s.missed_visits) + "/" +
                  std::to_string(s.expected_visits) + " visits missed)",
              fresh);
      }
    }
    // Rule 3: absolute score floor.
    if (s.samples >= kMinSamples) {
      const double score = registry.ScoreOf(node);
      if (score < kDegradedScore) {
        degraded = true;
        Raise(HealthEventKind::kDegradedShip, node, now, score, kDegradedScore,
              "health score " + std::to_string(score), fresh);
      }
    }
    if (!degraded) Clear(HealthEventKind::kDegradedShip, node);

    // Rule 4: starved EE — code misses grew since the previous evaluation
    // while executions did not (demand loading never completes).
    const auto prev = prev_code_counters_.find(node);
    if (prev != prev_code_counters_.end()) {
      const auto [prev_exec, prev_miss] = prev->second;
      if (s.code_misses > prev_miss && s.code_executions == prev_exec) {
        Raise(HealthEventKind::kStarvedEe, node, now,
              static_cast<double>(s.code_misses - prev_miss), 0.0,
              std::to_string(s.code_misses - prev_miss) +
                  " new code misses with no executions",
              fresh);
      } else if (s.code_executions > prev_exec) {
        Clear(HealthEventKind::kStarvedEe, node);
      }
    }
    prev_code_counters_[node] = {s.code_executions, s.code_misses};
  }
  return fresh;
}

}  // namespace viator::health
