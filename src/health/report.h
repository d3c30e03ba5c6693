// Health reports: the export format of the health plane, plus the
// regression-gate logic behind tools/wnhealth.
//
// A report is JSONL with three line kinds ("ship", "event", "summary");
// writers emit fixed field order so identical-seed runs produce byte-equal
// files. Diffing compares per-ship scores inside a tolerance band and event
// census per kind; the bench gate compares flat BENCH_*.json metric maps
// against committed baselines, ignoring wall-clock-derived keys.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "health/health.h"

namespace viator::health {

struct ShipReportEntry {
  net::NodeId ship = net::kInvalidNode;
  double score = 1.0;
  double queue_ewma = 0.0;
  double hop_latency_ewma = 0.0;
  double service_latency_ewma = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t expected_visits = 0;
  std::uint64_t missed_visits = 0;
  std::uint64_t code_executions = 0;
  std::uint64_t code_misses = 0;
};

struct HealthSummary {
  std::uint64_t probes_emitted = 0;
  std::uint64_t probes_absorbed = 0;
  std::uint64_t probes_lost = 0;
  std::uint64_t hops_observed = 0;
  std::uint64_t spans_ingested = 0;
  std::uint64_t events = 0;
};

struct HealthReport {
  std::vector<ShipReportEntry> ships;  // ship-id order
  std::vector<HealthEvent> events;     // raise order
  HealthSummary summary;
};

/// One line per ship, then per event, then the summary line.
void WriteHealthJsonl(const HealthReport& report, std::ostream& out);

/// Parses a written report back; nullopt when no summary line is found
/// (truncated or not a health report).
std::optional<HealthReport> ParseHealthJsonl(std::istream& in);

// ---- Report diff (wnhealth diff) ------------------------------------------

/// Allowed per-ship score drop before it counts as a regression.
inline constexpr double kScoreTolerance = 0.05;

/// Regressions of `current` against `baseline`: ship score drops beyond
/// kScoreTolerance, ships that disappeared, and per-kind event-count growth.
/// Empty means the gate passes. Improvements are not regressions.
std::vector<std::string> DiffHealthReports(const HealthReport& baseline,
                                           const HealthReport& current);

// ---- Bench gate (wnhealth bench) ------------------------------------------

/// Parses a flat one-level JSON object ({"metric": number, ...}) — the
/// BENCH_*.json shape written by telemetry::BenchReport.
std::map<std::string, double> ParseFlatJson(std::istream& in);

/// Allowed relative drift per bench metric.
inline constexpr double kBenchTolerance = 0.25;

/// Regressions of `current` against `baseline`: missing metrics, digests
/// (metrics whose name contains "digest") that differ at all and other
/// values drifting beyond kBenchTolerance. Metrics whose name contains
/// "wall", "per_sec", "mops", "seconds" or "speedup" are wall-clock-derived,
/// vary across machines and never gate. Metrics only in `current` are new,
/// not regressions.
std::vector<std::string> CompareBenchMetrics(
    const std::map<std::string, double>& baseline,
    const std::map<std::string, double>& current);

}  // namespace viator::health
