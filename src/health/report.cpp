#include "health/report.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <string_view>

#include "telemetry/export.h"

namespace viator::health {
namespace {

using telemetry::FindDoubleField;
using telemetry::FindStringField;
using telemetry::JsonString;
using telemetry::ShortestDouble;

std::uint64_t AsU64(std::optional<double> v) {
  return v ? static_cast<std::uint64_t>(*v) : 0;
}

}  // namespace

void WriteHealthJsonl(const HealthReport& report, std::ostream& out) {
  for (const ShipReportEntry& s : report.ships) {
    out << "{\"kind\":\"ship\",\"ship\":" << s.ship
        << ",\"score\":" << ShortestDouble(s.score)
        << ",\"queue_ewma\":" << ShortestDouble(s.queue_ewma)
        << ",\"hop_latency_ewma\":" << ShortestDouble(s.hop_latency_ewma)
        << ",\"service_latency_ewma\":"
        << ShortestDouble(s.service_latency_ewma)
        << ",\"samples\":" << s.samples
        << ",\"expected_visits\":" << s.expected_visits
        << ",\"missed_visits\":" << s.missed_visits
        << ",\"code_executions\":" << s.code_executions
        << ",\"code_misses\":" << s.code_misses << "}\n";
  }
  for (const HealthEvent& e : report.events) {
    out << "{\"kind\":\"event\",\"time\":" << e.time
        << ",\"type\":" << JsonString(HealthEventKindName(e.kind))
        << ",\"ship\":" << e.ship << ",\"value\":" << ShortestDouble(e.value)
        << ",\"threshold\":" << ShortestDouble(e.threshold)
        << ",\"detail\":" << JsonString(e.detail) << "}\n";
  }
  const HealthSummary& sum = report.summary;
  out << "{\"kind\":\"summary\",\"probes_emitted\":" << sum.probes_emitted
      << ",\"probes_absorbed\":" << sum.probes_absorbed
      << ",\"probes_lost\":" << sum.probes_lost
      << ",\"hops_observed\":" << sum.hops_observed
      << ",\"spans_ingested\":" << sum.spans_ingested
      << ",\"events\":" << sum.events << "}\n";
}

std::optional<HealthReport> ParseHealthJsonl(std::istream& in) {
  HealthReport report;
  bool have_summary = false;
  std::string line;
  while (std::getline(in, line)) {
    const auto kind = FindStringField(line, "kind");
    if (!kind) continue;
    if (*kind == "ship") {
      ShipReportEntry s;
      s.ship = static_cast<net::NodeId>(AsU64(FindDoubleField(line, "ship")));
      s.score = FindDoubleField(line, "score").value_or(1.0);
      s.queue_ewma = FindDoubleField(line, "queue_ewma").value_or(0.0);
      s.hop_latency_ewma =
          FindDoubleField(line, "hop_latency_ewma").value_or(0.0);
      s.service_latency_ewma =
          FindDoubleField(line, "service_latency_ewma").value_or(0.0);
      s.samples = AsU64(FindDoubleField(line, "samples"));
      s.expected_visits = AsU64(FindDoubleField(line, "expected_visits"));
      s.missed_visits = AsU64(FindDoubleField(line, "missed_visits"));
      s.code_executions = AsU64(FindDoubleField(line, "code_executions"));
      s.code_misses = AsU64(FindDoubleField(line, "code_misses"));
      report.ships.push_back(s);
    } else if (*kind == "event") {
      HealthEvent e;
      e.time = AsU64(FindDoubleField(line, "time"));
      const auto type = FindStringField(line, "type");
      if (type) {
        if (const auto parsed = HealthEventKindFromName(*type)) {
          e.kind = *parsed;
        }
      }
      e.ship = static_cast<net::NodeId>(AsU64(FindDoubleField(line, "ship")));
      e.value = FindDoubleField(line, "value").value_or(0.0);
      e.threshold = FindDoubleField(line, "threshold").value_or(0.0);
      e.detail = FindStringField(line, "detail").value_or("");
      report.events.push_back(std::move(e));
    } else if (*kind == "summary") {
      report.summary.probes_emitted =
          AsU64(FindDoubleField(line, "probes_emitted"));
      report.summary.probes_absorbed =
          AsU64(FindDoubleField(line, "probes_absorbed"));
      report.summary.probes_lost = AsU64(FindDoubleField(line, "probes_lost"));
      report.summary.hops_observed =
          AsU64(FindDoubleField(line, "hops_observed"));
      report.summary.spans_ingested =
          AsU64(FindDoubleField(line, "spans_ingested"));
      report.summary.events = AsU64(FindDoubleField(line, "events"));
      have_summary = true;
    }
  }
  if (!have_summary) return std::nullopt;
  return report;
}

std::vector<std::string> DiffHealthReports(const HealthReport& baseline,
                                           const HealthReport& current) {
  std::vector<std::string> regressions;
  std::map<net::NodeId, const ShipReportEntry*> current_ships;
  for (const ShipReportEntry& s : current.ships) current_ships[s.ship] = &s;
  for (const ShipReportEntry& base : baseline.ships) {
    const auto it = current_ships.find(base.ship);
    if (it == current_ships.end()) {
      regressions.push_back("ship " + std::to_string(base.ship) +
                            " disappeared from the current report");
      continue;
    }
    const double drop = base.score - it->second->score;
    if (drop > kScoreTolerance) {
      regressions.push_back(
          "ship " + std::to_string(base.ship) + " score dropped " +
          ShortestDouble(base.score) + " -> " +
          ShortestDouble(it->second->score) + " (tolerance " +
          ShortestDouble(kScoreTolerance) + ")");
    }
  }
  // Event census per kind: more events of any kind is a regression.
  std::map<std::string, std::size_t> base_events, cur_events;
  for (const HealthEvent& e : baseline.events) {
    ++base_events[std::string(HealthEventKindName(e.kind))];
  }
  for (const HealthEvent& e : current.events) {
    ++cur_events[std::string(HealthEventKindName(e.kind))];
  }
  for (const auto& [kind, count] : cur_events) {
    const auto it = base_events.find(kind);
    const std::size_t base_count = it == base_events.end() ? 0 : it->second;
    if (count > base_count) {
      regressions.push_back("anomaly count for " + kind + " grew " +
                            std::to_string(base_count) + " -> " +
                            std::to_string(count));
    }
  }
  return regressions;
}

std::map<std::string, double> ParseFlatJson(std::istream& in) {
  std::map<std::string, double> metrics;
  std::string line;
  while (std::getline(in, line)) {
    const auto open = line.find('"');
    if (open == std::string::npos) continue;
    const auto close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    const auto colon = line.find(':', close);
    if (colon == std::string::npos) continue;
    try {
      metrics[line.substr(open + 1, close - open - 1)] =
          std::stod(line.substr(colon + 1));
    } catch (...) {
      // not a "key": number line (braces etc.)
    }
  }
  return metrics;
}

std::vector<std::string> CompareBenchMetrics(
    const std::map<std::string, double>& baseline,
    const std::map<std::string, double>& current) {
  constexpr std::string_view kWallClockKeys[] = {"wall", "per_sec", "mops",
                                                 "seconds", "speedup"};
  std::vector<std::string> regressions;
  const auto ignored = [&](const std::string& name) {
    for (const std::string_view sub : kWallClockKeys) {
      if (name.find(sub) != std::string::npos) return true;
    }
    return false;
  };
  for (const auto& [name, base] : baseline) {
    if (ignored(name)) continue;
    const auto it = current.find(name);
    if (it == current.end()) {
      regressions.push_back("metric " + name + " missing from current run");
      continue;
    }
    const double cur = it->second;
    if (name.find("digest") != std::string::npos) {
      // A hash near the pinned one is as wrong as any other.
      if (cur != base) {
        regressions.push_back("metric " + name + " changed " +
                              ShortestDouble(base) + " -> " +
                              ShortestDouble(cur) +
                              " (digests match exactly)");
      }
      continue;
    }
    const double denom = std::max(std::fabs(base), 1e-12);
    const double drift = std::fabs(cur - base) / denom;
    if (drift > kBenchTolerance) {
      regressions.push_back(
          "metric " + name + " drifted " + ShortestDouble(base) + " -> " +
          ShortestDouble(cur) + " (" + ShortestDouble(drift * 100.0) +
          "% > " + ShortestDouble(kBenchTolerance * 100.0) + "%)");
    }
  }
  return regressions;
}

}  // namespace viator::health
