// wnscope — Wandering Observatory telemetry tool.
//
//   wnscope record  <out-dir>            run a seeded traced scenario with
//                                        the perf plane on, write
//                                        spans.jsonl, trace.json,
//                                        metrics.jsonl, metrics.prom,
//                                        perf.txt
//   wnscope inspect <spans-file>         trace/span/component summary
//   wnscope filter  <spans-file> <k=v>…  re-emit matching spans as JSONL
//                                        (component=NAME, ship=N, trace=HEX)
//   wnscope tree    <spans-file> [HEX]   causal tree(s), one box per trace
//   wnscope diff    <metrics-a> <metrics-b>  metric-by-metric comparison;
//                                        exits 0 when identical, 3 when any
//                                        metric differs (CI-stable contract)
//   wnscope timeline <out-dir>           run a seeded sharded workload with
//                                        the perf plane on, write a Perfetto
//                                        parallel timeline (timeline.json,
//                                        one track per shard + merge, plus
//                                        per-shard memory counter tracks),
//                                        shard_metrics.prom, and print the
//                                        straggler + cycle reports
//   wnscope mem     <out-dir>            run a seeded sharded workload with
//                                        the memory plane on, write mem.prom
//                                        and mem.txt, and print the
//                                        per-domain attribution table with a
//                                        coverage line against maxrss
//   wnscope latency <out-dir>            run a seeded sharded workload with
//                                        the latency plane and tracing on,
//                                        write lat.prom and lat.txt, print
//                                        the per-stage quantile table and a
//                                        worst-K tail drill-down whose rows
//                                        carry the trace id (resolvable in
//                                        the span collectors) and the birth
//                                        sim-time `wnreplay seek` travels to
//
// Span files may be either the native JSONL or the Chrome trace_event JSON
// that `record` writes; both parse back identically.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "services/caching.h"
#include "shard/sharded_network.h"
#include "sim/simulator.h"
#include "telemetry/export.h"
#include "telemetry/lat_stats.h"
#include "telemetry/mem_stats.h"
#include "telemetry/perf_stats.h"

namespace {

using namespace viator;  // tool code; the library never does this

int Usage() {
  std::cerr << "usage: wnscope record  <out-dir>\n"
               "       wnscope inspect <spans-file>\n"
               "       wnscope filter  <spans-file> <key=value>...\n"
               "       wnscope tree    <spans-file> [trace-hex]\n"
               "       wnscope diff    <metrics-a> <metrics-b>\n"
               "       wnscope timeline <out-dir>\n"
               "       wnscope mem     <out-dir>\n"
               "       wnscope latency <out-dir>\n";
  return 2;
}

std::string HexTrace(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

bool LoadSpans(const std::string& path,
               std::vector<telemetry::SpanRecord>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "wnscope: cannot open " << path << "\n";
    return false;
  }
  out = telemetry::ParseSpans(in);
  return true;
}

/// Seeded demo workload mirroring the acceptance scenario: a 3x3 grid with a
/// content cache at the center and an origin in the far corner; requesters
/// issue GETs (miss then hit), so traces cross several ships and two distinct
/// services (svc.caching, svc.origin).
int RunRecord(const std::string& out_dir) {
  constexpr std::uint64_t kSeed = 424242;
  telemetry::perf::ResetAll();
  telemetry::perf::SetEnabled(true);
  sim::Simulator simulator;
  net::Topology topology = net::MakeGrid(3, 3);
  wli::WnConfig config;
  config.telemetry.enable_tracing = true;
  wli::WanderingNetwork network(simulator, topology, config, kSeed);
  network.PopulateAllNodes();

  services::ContentOrigin origin(network, 8, /*object_words=*/16);
  services::CachingService cache(network, 4, 8);

  // Two content ids from three requesters: first GET per id misses through
  // to the origin, later ones hit in the cache.
  const net::NodeId requesters[] = {0, 2, 6};
  std::uint64_t flow = 1;
  for (std::uint64_t content_id = 7; content_id <= 8; ++content_id) {
    for (net::NodeId requester : requesters) {
      (void)network.Inject(wli::Shuttle::Data(
          requester, 4, {services::kCacheOpGet,
                         static_cast<std::int64_t>(content_id)},
          flow++));
      simulator.RunAll();
    }
  }
  network.Pulse();
  simulator.RunAll();
  telemetry::perf::SetEnabled(false);

  const auto& spans = network.telemetry().spans().spans();
  std::ofstream spans_out(out_dir + "/spans.jsonl");
  std::ofstream trace_out(out_dir + "/trace.json");
  std::ofstream metrics_out(out_dir + "/metrics.jsonl");
  std::ofstream prom_out(out_dir + "/metrics.prom");
  std::ofstream perf_out(out_dir + "/perf.txt");
  if (!spans_out || !trace_out || !metrics_out || !prom_out || !perf_out) {
    std::cerr << "wnscope: cannot write into " << out_dir << "\n";
    return 1;
  }
  telemetry::WriteSpansJsonl(spans, spans_out);
  telemetry::WriteTraceEventJson(spans, trace_out);
  telemetry::WriteMetricsJsonl(network.stats(), metrics_out);
  telemetry::WritePrometheusText(network.stats(), prom_out);
  perf_out << telemetry::FormatPerfReport();
  telemetry::perf::ResetAll();

  const auto traces = telemetry::GroupByTrace(spans);
  std::size_t connected = 0;
  for (const auto& [id, trace_spans] : traces) {
    if (telemetry::IsConnectedTree(trace_spans)) ++connected;
  }
  std::cout << "recorded " << spans.size() << " spans across "
            << traces.size() << " traces (" << connected
            << " connected) into " << out_dir << "\n";
  return 0;
}

/// Seeded sharded demo with a deliberately hot band: a 16x16 grid cut into 4
/// row bands, with traffic skewed into band 2, so the straggler report and
/// the Perfetto timeline have something visible to say.
int RunTimeline(const std::string& out_dir) {
  constexpr std::uint64_t kSeed = 515151;
  net::Topology global = net::MakeGrid(16, 16);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = 0;  // hardware concurrency: a real parallel timeline
  config.seed = kSeed;
  config.assignment = shard::GridRowBands(16, 16, 4);
  shard::ShardedNetwork world(global, config);

  telemetry::perf::SetEnabled(true);
  Rng traffic(kSeed ^ 0xabcdef);
  for (int round = 0; round < 24; ++round) {
    for (int i = 0; i < 64; ++i) {
      // Three of four shuttles live entirely inside band 2 (rows 8..11):
      // the injected imbalance the report must name.
      const bool hot = (i % 4) != 0;
      const std::uint64_t lo = hot ? 8 * 16 : 0;
      const std::uint64_t hi = hot ? 12 * 16 - 1 : 255;
      const auto src = static_cast<net::NodeId>(traffic.UniformInt(lo, hi));
      auto dst = static_cast<net::NodeId>(traffic.UniformInt(lo, hi));
      if (dst == src) dst = static_cast<net::NodeId>(lo + (dst - lo + 1) % 16);
      (void)world.Inject(src, dst, {round, i}, round * 100 + i + 1);
    }
    world.RunWindows(4);
  }
  world.RunUntilQuiescent();
  telemetry::perf::SetEnabled(false);

  std::ofstream timeline_out(out_dir + "/timeline.json");
  std::ofstream prom_out(out_dir + "/shard_metrics.prom");
  if (!timeline_out || !prom_out) {
    std::cerr << "wnscope: cannot write into " << out_dir << "\n";
    return 1;
  }
  telemetry::WriteShardTimelineJson(world.observatory(), timeline_out);
  telemetry::PublishPerfStats(world.stats());
  telemetry::WritePrometheusText(world.stats(), prom_out);

  const telemetry::StragglerReport report = world.observatory().Report();
  std::cout << report.Format() << "\n"
            << telemetry::FormatPerfReport() << "recorded "
            << world.observatory().windows().size() << " of "
            << report.windows << " windows into " << out_dir
            << "/timeline.json (load in ui.perfetto.dev)\n";
  telemetry::perf::ResetAll();
  return 0;
}

/// The seeded sharded demo `mem` and `latency` share: a 12x12 grid cut into
/// 4 row bands, run single-threaded (so the mem plane's summed per-thread
/// peaks are the exact peaks).
constexpr int kDemoSide = 12;

shard::ShardedConfig DemoConfig(std::uint64_t seed) {
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = 1;
  config.seed = seed;
  config.assignment = shard::GridRowBands(kDemoSide, kDemoSide, 4);
  return config;
}

/// The demo's traffic: 16 rounds of 48 uniformly placed shuttles, four
/// windows per round, then a drain. `after_window` (optional) runs at every
/// window barrier of the rounds.
void DriveDemo(shard::ShardedNetwork& world, std::uint64_t traffic_seed,
               const std::function<void()>& after_window) {
  constexpr int kNodes = kDemoSide * kDemoSide;
  Rng traffic(traffic_seed);
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 48; ++i) {
      const auto src =
          static_cast<net::NodeId>(traffic.UniformInt(0, kNodes - 1));
      auto dst = static_cast<net::NodeId>(traffic.UniformInt(0, kNodes - 1));
      if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % kNodes);
      (void)world.Inject(src, dst, {round, i}, round * 100 + i + 1);
    }
    for (int window = 0; window < 4; ++window) {
      world.RunWindows(1);
      if (after_window) after_window();
    }
  }
  world.RunUntilQuiescent();
}

/// The demo with the memory plane enabled before the world is built
/// (construction-time pool growth is attributed too).
int RunMem(const std::string& out_dir) {
  constexpr std::uint64_t kSeed = 616161;
  telemetry::mem::ResetAll();
  telemetry::mem::SetEnabled(true);

  net::Topology global = net::MakeGrid(kDemoSide, kDemoSide);
  int rc = 0;
  {
    shard::ShardedNetwork world(global, DemoConfig(kSeed));
    DriveDemo(world, kSeed ^ 0x5eed, nullptr);

    const auto aggregate = telemetry::mem::Aggregate();
    const std::uint64_t maxrss = telemetry::ReadMaxRssBytes();
    telemetry::PublishMemStats(world.stats(), aggregate);
    telemetry::PublishProcStats(world.stats(), telemetry::ReadRssBytes(),
                                maxrss);
    std::ofstream prom_out(out_dir + "/mem.prom");
    std::ofstream report_out(out_dir + "/mem.txt");
    if (!prom_out || !report_out) {
      std::cerr << "wnscope: cannot write into " << out_dir << "\n";
      rc = 1;
    } else {
      telemetry::WritePrometheusText(world.stats(), prom_out);
      const std::string report = telemetry::FormatMemReport(aggregate, maxrss);
      report_out << report;
      std::cout << report << "wrote " << out_dir << "/mem.prom and "
                << out_dir << "/mem.txt\n";
    }
  }
  telemetry::mem::SetEnabled(false);
  telemetry::mem::ResetAll();
  return rc;
}

/// The demo with the latency plane and tracing enabled: every barrier
/// fold's worst-delivery exemplars are harvested, then the per-stage
/// quantile table (merged across shards) is printed next to a worst-K tail
/// drill-down. Each drill-down row carries the exemplar's trace id —
/// resolved against the shards' span collectors right here, the same join
/// `bench_latency` gates — and its birth sim-time, the coordinate `wnreplay
/// seek` travels to.
int RunLatency(const std::string& out_dir) {
  constexpr std::uint64_t kSeed = 717171;
  namespace lat = telemetry::lat;
  lat::SetEnabled(true);

  net::Topology global = net::MakeGrid(kDemoSide, kDemoSide);
  shard::ShardedConfig config = DemoConfig(kSeed);
  config.wn.telemetry.enable_tracing = true;
  // Keep the whole run's spans alive so every drill-down trace resolves.
  config.wn.telemetry.span_capacity = 1 << 18;
  int rc = 0;
  {
    shard::ShardedNetwork world(global, config);
    std::vector<lat::Exemplar> tail;
    const auto harvest = [&] {
      for (std::uint32_t shard = 0; shard < world.shard_count(); ++shard) {
        const lat::Lane::WindowStats& fold = world.LatencyWindow(shard);
        tail.insert(tail.end(), fold.worst.begin(), fold.worst.end());
      }
    };
    DriveDemo(world, kSeed ^ 0x1a7e, harvest);
    harvest();

    lat::Lane merged;
    for (std::uint32_t shard = 0; shard < world.shard_count(); ++shard) {
      world.shard_network(shard).lat_lane().MergeInto(merged);
    }

    std::sort(tail.begin(), tail.end(),
              [](const lat::Exemplar& a, const lat::Exemplar& b) {
                return a.WorseThan(b);
              });
    tail.erase(std::unique(tail.begin(), tail.end(),
                           [](const lat::Exemplar& a, const lat::Exemplar& b) {
                             return a.trace_id == b.trace_id;
                           }),
               tail.end());
    if (tail.size() > 8) tail.resize(8);

    TablePrinter drill(
        {"trace", "latency_ns", "class", "spans", "birth_ns (wnreplay seek)"});
    for (const lat::Exemplar& ex : tail) {
      std::size_t spans = 0;
      for (std::uint32_t shard = 0; shard < world.shard_count(); ++shard) {
        for (const telemetry::SpanRecord& s :
             world.shard_network(shard).telemetry().spans().spans()) {
          if (s.trace_id == ex.trace_id) ++spans;
        }
      }
      drill.AddRow({HexTrace(ex.trace_id), std::to_string(ex.duration_ns),
                    lat::ClassName(ex.cls), std::to_string(spans),
                    std::to_string(ex.birth)});
    }

    telemetry::PublishLatStats(world.stats(), merged);
    std::ofstream prom_out(out_dir + "/lat.prom");
    std::ofstream report_out(out_dir + "/lat.txt");
    if (!prom_out || !report_out) {
      std::cerr << "wnscope: cannot write into " << out_dir << "\n";
      rc = 1;
    } else {
      telemetry::WritePrometheusText(world.stats(), prom_out);
      const std::string report = telemetry::FormatLatReport(merged);
      report_out << report;
      std::cout << report << "worst tail exemplars:\n";
      drill.Print(std::cout);
      std::cout << "wrote " << out_dir << "/lat.prom and " << out_dir
                << "/lat.txt\n";
    }
  }
  lat::SetEnabled(false);
  return rc;
}

int RunInspect(const std::string& path) {
  std::vector<telemetry::SpanRecord> spans;
  if (!LoadSpans(path, spans)) return 1;
  const auto traces = telemetry::GroupByTrace(spans);

  TablePrinter per_trace({"trace", "spans", "ships", "services", "tree"});
  for (const auto& [id, trace_spans] : traces) {
    std::set<std::uint64_t> ships;
    std::set<std::string> services;
    for (const auto& s : trace_spans) {
      ships.insert(s.ship);
      services.insert(s.component);
    }
    per_trace.AddRow({HexTrace(id), std::to_string(trace_spans.size()),
                      std::to_string(ships.size()),
                      std::to_string(services.size()),
                      telemetry::IsConnectedTree(trace_spans) ? "connected"
                                                              : "broken"});
  }
  std::cout << spans.size() << " spans, " << traces.size() << " traces\n";
  per_trace.Print(std::cout);

  std::map<std::string, std::uint64_t> by_component;
  for (const auto& s : spans) ++by_component[s.component + "/" + s.name];
  TablePrinter per_component({"component/name", "spans"});
  for (const auto& [key, count] : by_component) {
    per_component.AddRow({key, std::to_string(count)});
  }
  per_component.Print(std::cout);
  return 0;
}

int RunFilter(const std::string& path, const std::vector<std::string>& terms) {
  std::vector<telemetry::SpanRecord> spans;
  if (!LoadSpans(path, spans)) return 1;
  for (const std::string& term : terms) {
    const auto eq = term.find('=');
    if (eq == std::string::npos) {
      std::cerr << "wnscope: bad filter '" << term << "' (want key=value)\n";
      return 2;
    }
    const std::string key = term.substr(0, eq);
    const std::string value = term.substr(eq + 1);
    auto keep = [&](const telemetry::SpanRecord& s) {
      if (key == "component") return s.component == value;
      if (key == "ship") return std::to_string(s.ship) == value;
      if (key == "trace") return HexTrace(s.trace_id) == value;
      return false;
    };
    if (key != "component" && key != "ship" && key != "trace") {
      std::cerr << "wnscope: unknown filter key '" << key << "'\n";
      return 2;
    }
    std::erase_if(spans, [&](const auto& s) { return !keep(s); });
  }
  telemetry::WriteSpansJsonl(spans, std::cout);
  return 0;
}

int RunTree(const std::string& path, const std::string& trace_hex) {
  std::vector<telemetry::SpanRecord> spans;
  if (!LoadSpans(path, spans)) return 1;
  const auto traces = telemetry::GroupByTrace(spans);
  bool found = false;
  for (const auto& [id, trace_spans] : traces) {
    if (!trace_hex.empty() && HexTrace(id) != trace_hex) continue;
    found = true;
    std::cout << telemetry::FormatTraceTree(trace_spans);
  }
  if (!found) {
    std::cerr << "wnscope: no trace "
              << (trace_hex.empty() ? "records" : trace_hex) << " in " << path
              << "\n";
    return 1;
  }
  return 0;
}

int RunDiff(const std::string& path_a, const std::string& path_b) {
  std::ifstream in_a(path_a), in_b(path_b);
  if (!in_a || !in_b) {
    std::cerr << "wnscope: cannot open " << (!in_a ? path_a : path_b) << "\n";
    return 1;
  }
  const auto a = telemetry::ParseMetricsJsonl(in_a);
  const auto b = telemetry::ParseMetricsJsonl(in_b);

  TablePrinter table({"metric", "a", "b", "delta"});
  std::size_t differing = 0;
  std::set<std::string> names;
  for (const auto& [name, value] : a) names.insert(name);
  for (const auto& [name, value] : b) names.insert(name);
  for (const std::string& name : names) {
    const auto it_a = a.find(name);
    const auto it_b = b.find(name);
    const bool in_a_only = it_b == b.end();
    const bool in_b_only = it_a == a.end();
    if (!in_a_only && !in_b_only && it_a->second == it_b->second) continue;
    ++differing;
    table.AddRow({name,
                  in_b_only ? "-" : FormatDouble(it_a->second, 6),
                  in_a_only ? "-" : FormatDouble(it_b->second, 6),
                  in_a_only || in_b_only
                      ? "-"
                      : FormatDouble(it_b->second - it_a->second, 6)});
  }
  if (differing == 0) {
    std::cout << "identical (" << a.size() << " metrics)\n";
    return 0;
  }
  table.Print(std::cout);
  std::cout << differing << " of " << names.size() << " metrics differ\n";
  // Stable CI contract: 0 = identical, 3 = traces differ (1/2 stay usage
  // and I/O errors).
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "record") return RunRecord(argv[2]);
  if (cmd == "timeline") return RunTimeline(argv[2]);
  if (cmd == "mem") return RunMem(argv[2]);
  if (cmd == "latency") return RunLatency(argv[2]);
  if (cmd == "inspect") return RunInspect(argv[2]);
  if (cmd == "filter") {
    return RunFilter(argv[2],
                     std::vector<std::string>(argv + 3, argv + argc));
  }
  if (cmd == "tree") return RunTree(argv[2], argc > 3 ? argv[3] : "");
  if (cmd == "diff") {
    if (argc < 4) return Usage();
    return RunDiff(argv[2], argv[3]);
  }
  return Usage();
}
