// wnhealth — Self-Referential Health Plane tool and regression gate.
//
//   wnhealth record <out-dir> [--degrade]   run the seeded probe scenario,
//                                        write health.jsonl (full report),
//                                        anomalies.jsonl (events only) and
//                                        health.prom (Prometheus text);
//                                        --degrade fails a transit ship
//                                        mid-run so probes flag it
//   wnhealth check  <health.jsonl>       gate: exit 4 when the report holds
//                                        any anomaly
//   wnhealth diff   <baseline.jsonl> <current.jsonl>
//                                        gate: exit 4 on score drops beyond
//                                        0.05, vanished ships or per-kind
//                                        anomaly growth
//   wnhealth bench  <baseline.json> <current.json>
//                                        gate: exit 4 when BENCH_*.json
//                                        metrics drift beyond 0.25;
//                                        wall-clock keys are ignored
//   wnhealth trend  <bench-dir> <out.json>  merge every BENCH_<name>.json in
//                                        the directory into one flat
//                                        "<name>.<metric>" JSON (metrics
//                                        already under "<name>." keep their
//                                        key) — the per-commit
//                                        bench-trajectory artifact CI
//                                        archives as BENCH_trend.json
//
// Exit codes are CI-stable: 0 pass, 1 I/O error, 2 usage (an unknown or
// missing argument), 4 gate failure.
// Identical-seed record runs write byte-identical health.jsonl files.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/wandering_network.h"
#include "health/probe.h"
#include "health/report.h"
#include "net/failure.h"
#include "net/topology.h"
#include "services/caching.h"
#include "sim/simulator.h"
#include "telemetry/export.h"

namespace {

using namespace viator;  // tool code; the library never does this

int Usage() {
  std::cerr << "usage: wnhealth record <out-dir> [--degrade]\n"
               "       wnhealth check  <health.jsonl>\n"
               "       wnhealth diff   <baseline.jsonl> <current.jsonl>\n"
               "       wnhealth bench  <baseline.json> <current.json>\n"
               "       wnhealth trend  <bench-dir> <out.json>\n";
  return 2;
}

std::optional<health::HealthReport> LoadReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "wnhealth: cannot open " << path << "\n";
    return std::nullopt;
  }
  auto report = health::ParseHealthJsonl(in);
  if (!report) {
    std::cerr << "wnhealth: " << path << " is not a health report\n";
  }
  return report;
}

/// Seeded probe scenario: the wnscope demo workload (3x3 grid, center cache,
/// corner origin, three requesters) with the health plane on top — probes
/// every 50ms from ship 0 for two simulated seconds. With `degrade`, ship 5
/// goes down for good at t=500ms; probe losses then flag it as degraded.
int RunRecord(const std::string& out_dir, bool degrade) {
  constexpr std::uint64_t kSeed = 424242;
  constexpr sim::TimePoint kRunEnd = 2 * sim::kSecond;
  sim::Simulator simulator;
  net::Topology topology = net::MakeGrid(3, 3);
  wli::WnConfig config;
  config.telemetry.enable_tracing = true;
  wli::WanderingNetwork network(simulator, topology, config, kSeed);
  network.PopulateAllNodes();

  health::HealthConfig hconfig;
  hconfig.enable_probes = true;
  hconfig.collector = 0;
  health::ProbePlane plane(network, hconfig, kSeed);
  plane.StartProbes(kRunEnd);

  services::ContentOrigin origin(network, 8, /*object_words=*/16);
  services::CachingService cache(network, 4, 8);
  // Private stream: the failure process must not perturb network draws.
  net::FailureInjector failures(simulator, topology, Rng(kSeed ^ 0xFA17ED));
  if (degrade) {
    failures.FailNode(5, 500 * sim::kMillisecond, /*outage=*/0);
  }

  // Requesters fire every 150ms so workload and probes interleave.
  const net::NodeId requesters[] = {0, 2, 6};
  std::uint64_t flow = 1;
  sim::TimePoint at = 100 * sim::kMillisecond;
  for (std::uint64_t content_id = 7; content_id <= 8; ++content_id) {
    for (net::NodeId requester : requesters) {
      simulator.ScheduleAt(
          at,
          [&network, requester, content_id, flow] {
            (void)network.Inject(wli::Shuttle::Data(
                requester, 4,
                {services::kCacheOpGet,
                 static_cast<std::int64_t>(content_id)},
                flow));
          });
      ++flow;
      at += 150 * sim::kMillisecond;
    }
  }
  simulator.RunUntil(kRunEnd);
  simulator.RunAll();
  plane.Evaluate();  // final scoring pass over everything deposited

  const health::HealthReport report = plane.BuildReport();
  std::ofstream health_out(out_dir + "/health.jsonl");
  std::ofstream anomalies_out(out_dir + "/anomalies.jsonl");
  std::ofstream prom_out(out_dir + "/health.prom");
  if (!health_out || !anomalies_out || !prom_out) {
    std::cerr << "wnhealth: cannot write into " << out_dir << "\n";
    return 1;
  }
  health::WriteHealthJsonl(report, health_out);
  health::HealthReport anomalies_only;
  anomalies_only.events = report.events;
  anomalies_only.summary = report.summary;
  health::WriteHealthJsonl(anomalies_only, anomalies_out);
  telemetry::WritePrometheusText(network.stats(), prom_out);

  std::cout << "recorded " << report.summary.probes_absorbed << "/"
            << report.summary.probes_emitted << " probes ("
            << report.summary.probes_lost << " lost), "
            << report.summary.hops_observed << " hop samples, "
            << report.events.size() << " anomalies into " << out_dir << "\n";
  return 0;
}

int RunCheck(const std::string& path) {
  const auto report = LoadReport(path);
  if (!report) return 1;
  for (const health::HealthEvent& event : report->events) {
    std::cout << "anomaly t=" << event.time << " "
              << health::HealthEventKindName(event.kind) << " ship "
              << event.ship << ": " << event.detail << "\n";
  }
  if (!report->events.empty()) {
    std::cout << "FAIL: " << report->events.size() << " anomalies (max 0)\n";
    return 4;
  }
  std::cout << "OK: 0 anomalies within budget (" << report->ships.size()
            << " ships scored)\n";
  return 0;
}

int RunDiff(const std::string& base_path, const std::string& cur_path) {
  const auto baseline = LoadReport(base_path);
  const auto current = LoadReport(cur_path);
  if (!baseline || !current) return 1;
  const auto regressions = health::DiffHealthReports(*baseline, *current);
  for (const std::string& r : regressions) std::cout << "REGRESSION: " << r
                                                     << "\n";
  if (!regressions.empty()) {
    std::cout << "FAIL: " << regressions.size() << " regressions\n";
    return 4;
  }
  std::cout << "OK: " << current->ships.size() << " ships within tolerance "
            << health::kScoreTolerance << "\n";
  return 0;
}

int RunBench(const std::string& base_path, const std::string& cur_path) {
  std::ifstream base_in(base_path), cur_in(cur_path);
  if (!base_in || !cur_in) {
    std::cerr << "wnhealth: cannot open "
              << (!base_in ? base_path : cur_path) << "\n";
    return 1;
  }
  const auto baseline = health::ParseFlatJson(base_in);
  const auto current = health::ParseFlatJson(cur_in);
  if (baseline.empty()) {
    std::cerr << "wnhealth: no metrics in " << base_path << "\n";
    return 1;
  }
  const auto regressions = health::CompareBenchMetrics(baseline, current);
  for (const std::string& r : regressions) std::cout << "REGRESSION: " << r
                                                     << "\n";
  if (!regressions.empty()) {
    std::cout << "FAIL: " << regressions.size() << " regressions\n";
    return 4;
  }
  std::cout << "OK: " << baseline.size() << " baseline metrics within "
            << health::kBenchTolerance * 100.0 << "%\n";
  return 0;
}

int RunTrend(const std::string& bench_dir, const std::string& out_path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> reports;
  for (const auto& entry : fs::directory_iterator(bench_dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0) continue;
    if (entry.path().extension() != ".json") continue;
    if (file == "BENCH_trend.json") continue;  // never fold ourselves back in
    reports.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "wnhealth: cannot read directory " << bench_dir << "\n";
    return 1;
  }
  std::sort(reports.begin(), reports.end());  // deterministic merge order

  // "<bench>.<metric>" keys: BENCH_health.json's "probes_emitted" becomes
  // "health.probes_emitted", so one artifact carries every bench's numbers
  // and stays diffable commit to commit. Metrics already namespaced under
  // their bench (BENCH_memory.json's "memory.total_live_bytes") keep their
  // name instead of doubling the prefix.
  std::map<std::string, double> merged;
  for (const fs::path& path : reports) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "wnhealth: cannot open " << path.string() << "\n";
      return 1;
    }
    const std::string stem = path.stem().string();  // BENCH_<name>
    const std::string prefix =
        stem.substr(std::string("BENCH_").size()) + ".";
    for (const auto& [metric, value] : health::ParseFlatJson(in)) {
      merged[metric.rfind(prefix, 0) == 0 ? metric : prefix + metric] =
          value;
    }
  }

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "wnhealth: cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n";
  bool first = true;
  for (const auto& [metric, value] : merged) {
    if (!first) out << ",\n";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << "  \"" << metric << "\": " << buf;
  }
  out << "\n}\n";
  std::cout << "merged " << reports.size() << " bench reports ("
            << merged.size() << " metrics) into " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "record") {
    const bool degrade = argc == 4 && std::string(argv[3]) == "--degrade";
    if (argc != (degrade ? 4 : 3)) return Usage();
    return RunRecord(argv[2], degrade);
  }
  if (cmd == "check" && argc == 3) return RunCheck(argv[2]);
  if (cmd == "diff" && argc == 4) return RunDiff(argv[2], argv[3]);
  if (cmd == "bench" && argc == 4) return RunBench(argv[2], argv[3]);
  if (cmd == "trend" && argc == 4) return RunTrend(argv[2], argv[3]);
  return Usage();
}
