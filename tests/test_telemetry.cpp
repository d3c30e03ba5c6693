// Wandering Observatory: causal span collection, plane stats publication,
// export round-trips and the end-to-end acceptance property — a traced
// capsule's spans reconstruct into one connected causal tree crossing
// several ships and services.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/archive.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "services/caching.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"
#include "telemetry/export.h"
#include "telemetry/mem_stats.h"
#include "telemetry/perf_counters.h"
#include "telemetry/perf_stats.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"
#include "vm/assembler.h"

namespace viator {
namespace {

// ---- SpanCollector ----------------------------------------------------------

TEST(SpanCollector, IssuesNonZeroDistinctIds) {
  telemetry::SpanCollector collector(/*id_seed=*/1, /*capacity=*/16);
  const auto a = collector.StartTrace();
  const auto b = collector.StartTrace();
  EXPECT_NE(a.trace_id, 0u);
  EXPECT_NE(b.trace_id, 0u);
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_TRUE(a.active());
  EXPECT_EQ(collector.NextSpanId(), 1u);
  EXPECT_EQ(collector.NextSpanId(), 2u);
  EXPECT_EQ(collector.traces_started(), 2u);
}

TEST(SpanCollector, SameSeedSameIds) {
  telemetry::SpanCollector a(/*id_seed=*/77, /*capacity=*/4);
  telemetry::SpanCollector b(/*id_seed=*/77, /*capacity=*/4);
  EXPECT_EQ(a.StartTrace().trace_id, b.StartTrace().trace_id);
  EXPECT_EQ(a.StartTrace().trace_id, b.StartTrace().trace_id);
}

TEST(SpanCollector, CapacityDropsNewSpans) {
  telemetry::SpanCollector collector(/*id_seed=*/1, /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    telemetry::SpanRecord record;
    record.span_id = collector.NextSpanId();
    collector.Commit(record);
  }
  EXPECT_EQ(collector.spans().size(), 2u);
  EXPECT_EQ(collector.spans_recorded(), 2u);
  EXPECT_EQ(collector.spans_dropped(), 3u);
  // The *oldest* spans are the ones kept (the front of a trace matters).
  EXPECT_EQ(collector.spans()[0].span_id, 1u);
  EXPECT_EQ(collector.spans()[1].span_id, 2u);
}

TEST(SpanCollector, ClearKeepsIdState) {
  telemetry::SpanCollector collector(/*id_seed=*/1, /*capacity=*/4);
  (void)collector.NextSpanId();
  (void)collector.NextSpanId();
  collector.Clear();
  EXPECT_EQ(collector.NextSpanId(), 3u);
}

TEST(SpanCollector, StateRoundTripIsExact) {
  telemetry::SpanCollector collector(/*id_seed=*/5, /*capacity=*/8);
  auto ctx = collector.StartTrace();
  telemetry::SpanRecord record;
  record.trace_id = ctx.trace_id;
  record.span_id = collector.NextSpanId();
  record.ship = 3;
  record.component = "svc.caching";
  record.name = "get";
  record.start = 10;
  record.end = 20;
  collector.Commit(record);

  telemetry::SpanCollector restored(/*id_seed=*/999, /*capacity=*/8);
  ASSERT_TRUE(LoadFields(SaveFields(collector), restored).ok());
  ASSERT_EQ(restored.spans().size(), 1u);
  EXPECT_EQ(restored.spans()[0].component, "svc.caching");
  EXPECT_EQ(restored.traces_started(), 1u);
  // The restored id RNG continues the source's stream, not its own seed's.
  EXPECT_EQ(restored.StartTrace().trace_id, collector.StartTrace().trace_id);
  EXPECT_EQ(restored.NextSpanId(), collector.NextSpanId());
}

// ---- SpanScope --------------------------------------------------------------

TEST(SpanScope, RecordsParentChildLinkage) {
  sim::Simulator simulator;
  telemetry::TelemetryConfig config;
  config.enable_tracing = true;
  telemetry::Telemetry telemetry(simulator, config, /*id_seed=*/42);

  auto root_ctx = telemetry.StartTrace();
  ASSERT_TRUE(root_ctx.active());
  {
    telemetry::SpanScope root(telemetry, root_ctx, /*ship=*/1, "wn", "inject");
    EXPECT_EQ(root.context().parent_span_id, 0u);
    telemetry::SpanScope child(telemetry, root.context(), /*ship=*/2, "ship",
                               "forward");
    EXPECT_EQ(child.context().trace_id, root_ctx.trace_id);
    EXPECT_EQ(child.context().parent_span_id, root.context().span_id);
  }
  const auto& spans = telemetry.spans().spans();
  ASSERT_EQ(spans.size(), 2u);  // child commits first (destruction order)
  EXPECT_EQ(spans[0].name, "forward");
  EXPECT_EQ(spans[1].name, "inject");
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
}

TEST(SpanScope, InertWhenTracingDisabled) {
  sim::Simulator simulator;
  telemetry::Telemetry telemetry(simulator, {}, /*id_seed=*/42);
  EXPECT_FALSE(telemetry.StartTrace().active());
  telemetry::TraceContext parent{123, 7, 3};
  telemetry::SpanScope scope(telemetry, parent, 1, "ship", "consume");
  EXPECT_EQ(scope.context(), parent);  // echoes the parent verbatim
  EXPECT_TRUE(telemetry.spans().spans().empty());
}

TEST(SpanScope, InertForUntracedCapsules) {
  sim::Simulator simulator;
  telemetry::TelemetryConfig config;
  config.enable_tracing = true;
  telemetry::Telemetry telemetry(simulator, config, /*id_seed=*/42);
  telemetry::TraceContext inactive;  // trace_id 0
  telemetry::SpanScope scope(telemetry, inactive, 1, "ship", "consume");
  EXPECT_FALSE(scope.context().active());
  EXPECT_TRUE(telemetry.spans().spans().empty());
}

// ---- Export round-trips -----------------------------------------------------

std::vector<telemetry::SpanRecord> SampleSpans() {
  std::vector<telemetry::SpanRecord> spans;
  spans.push_back({0xabcdef0123456789ULL, 1, 0, 4, "wn", "inject", 100, 250});
  spans.push_back(
      {0xabcdef0123456789ULL, 2, 1, 5, "svc.caching", "get", 300, 1800});
  spans.push_back({0x42ULL, 3, 0, 6, "ship", "name \"quoted\"\n", 0, 7});
  return spans;
}

TEST(Export, SpansJsonlRoundTripsExactly) {
  const auto spans = SampleSpans();
  std::stringstream stream;
  telemetry::WriteSpansJsonl(spans, stream);
  const auto parsed = telemetry::ParseSpans(stream);
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, spans[i].span_id);
    EXPECT_EQ(parsed[i].parent_span_id, spans[i].parent_span_id);
    EXPECT_EQ(parsed[i].ship, spans[i].ship);
    EXPECT_EQ(parsed[i].component, spans[i].component);
    EXPECT_EQ(parsed[i].name, spans[i].name);
    EXPECT_EQ(parsed[i].start, spans[i].start);
    EXPECT_EQ(parsed[i].end, spans[i].end);
  }
}

TEST(Export, SpansJsonlIsDeterministic) {
  std::ostringstream a, b;
  telemetry::WriteSpansJsonl(SampleSpans(), a);
  telemetry::WriteSpansJsonl(SampleSpans(), b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"trace\":\"abcdef0123456789\""), std::string::npos);
}

TEST(Export, TraceEventJsonRoundTripsIds) {
  const auto spans = SampleSpans();
  std::stringstream stream;
  telemetry::WriteTraceEventJson(spans, stream);
  EXPECT_NE(stream.str().find("\"displayTimeUnit\":\"ns\""),
            std::string::npos);
  const auto parsed = telemetry::ParseSpans(stream);
  ASSERT_EQ(parsed.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, spans[i].span_id);
    EXPECT_EQ(parsed[i].parent_span_id, spans[i].parent_span_id);
    EXPECT_EQ(parsed[i].ship, spans[i].ship);
    EXPECT_EQ(parsed[i].component, spans[i].component);
    // ts/dur are µs with three decimals, so ns timestamps survive exactly.
    EXPECT_EQ(parsed[i].start, spans[i].start);
    EXPECT_EQ(parsed[i].end, spans[i].end);
  }
}

TEST(Export, ConnectedTreeDetection) {
  std::vector<telemetry::SpanRecord> tree;
  tree.push_back({9, 1, 0, 0, "wn", "inject", 0, 1});
  tree.push_back({9, 2, 1, 1, "ship", "forward", 1, 2});
  tree.push_back({9, 3, 2, 2, "ship", "consume", 2, 3});
  EXPECT_TRUE(telemetry::IsConnectedTree(tree));

  auto orphan = tree;
  orphan[2].parent_span_id = 99;  // parent not in the set
  EXPECT_FALSE(telemetry::IsConnectedTree(orphan));

  auto forest = tree;
  forest[1].parent_span_id = 0;  // two roots
  EXPECT_FALSE(telemetry::IsConnectedTree(forest));

  EXPECT_FALSE(telemetry::IsConnectedTree({}));
}

TEST(Export, MetricsJsonlRoundTripsValues) {
  sim::StatsRegistry stats;
  stats.GetCounter("wn.shuttles_injected").Add(12);
  stats.GetGauge("ship.queue_depth").Set(2.5);
  stats.GetHistogram("fabric.latency_ns").Record(1000);
  stats.GetHistogram("fabric.latency_ns").Record(3000);
  std::stringstream stream;
  telemetry::WriteMetricsJsonl(stats, stream);
  const auto parsed = telemetry::ParseMetricsJsonl(stream);
  EXPECT_DOUBLE_EQ(parsed.at("wn.shuttles_injected"), 12.0);
  EXPECT_DOUBLE_EQ(parsed.at("ship.queue_depth"), 2.5);
  EXPECT_DOUBLE_EQ(parsed.at("fabric.latency_ns"), 2000.0);  // mean
}

TEST(Export, PrometheusTextSanitizesNames) {
  sim::StatsRegistry stats;
  stats.GetCounter("wn.shuttles_injected").Add(3);
  stats.GetHistogram("fabric.latency_ns").Record(500);
  std::ostringstream out;
  telemetry::WritePrometheusText(stats, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("viator_wn_shuttles_injected 3"), std::string::npos);
  EXPECT_NE(text.find("viator_fabric_latency_ns_count 1"), std::string::npos);
  EXPECT_NE(text.find("le="), std::string::npos);
  // Metric names never keep the dot ("fabric.latency" would be invalid).
  EXPECT_EQ(text.find("viator_fabric.latency"), std::string::npos);
}

TEST(Export, PrometheusTextMatchesGoldenBytes) {
  // Byte-exact exposition-format golden: HELP + TYPE per metric, sanitized
  // names, classic histograms with cumulative le buckets. Exporter changes
  // must update this golden deliberately — scrape configs depend on the
  // exact shape. 4.0 lands in the half-octave bucket [4, 2^2.5), whose
  // upper bound 2^2.5 prints as its shortest round-trip decimal.
  sim::StatsRegistry stats;
  stats.GetCounter("wn.probes").Add(3);
  stats.GetGauge("health.score.4").Set(0.25);
  stats.GetHistogram("h.lat").Record(4.0);
  std::ostringstream out;
  telemetry::WritePrometheusText(stats, out);
  EXPECT_EQ(out.str(),
            "# HELP viator_wn_probes Viator counter wn.probes\n"
            "# TYPE viator_wn_probes counter\n"
            "viator_wn_probes 3\n"
            "# HELP viator_health_score_4 Viator gauge health.score.4\n"
            "# TYPE viator_health_score_4 gauge\n"
            "viator_health_score_4 0.25\n"
            "# HELP viator_h_lat Viator histogram h.lat\n"
            "# TYPE viator_h_lat histogram\n"
            "viator_h_lat_bucket{le=\"5.6568542494923806\"} 1\n"
            "viator_h_lat_bucket{le=\"+Inf\"} 1\n"
            "viator_h_lat_sum 4\n"
            "viator_h_lat_count 1\n");
}

// ---- Process memory stats ---------------------------------------------------

TEST(MemStats, ProcGaugesArePlausible) {
  sim::StatsRegistry stats;
  telemetry::PublishProcStats(stats, telemetry::ReadRssBytes(),
                              telemetry::ReadMaxRssBytes());
  // Host-varying, so only presence and plausibility are asserted (maxrss is
  // never 0 on Linux).
  EXPECT_GT(stats.GetGauge("proc.maxrss_bytes").value(), 0.0);
  EXPECT_GE(stats.GetGauge("proc.rss_bytes").value(), 0.0);
}

// ---- BenchReport ------------------------------------------------------------

TEST(BenchReport, ToJsonIsFlatAndSorted) {
  telemetry::BenchReport report("micro_substrate");
  report.Set("throughput_mops", 12.5);
  report.Set("bytes", 1024);
  sim::StatsRegistry stats;
  stats.GetCounter("shuttles").Add(7);
  report.AddCounters(stats, "wn");
  EXPECT_EQ(report.ToJson(),
            "{\n  \"bytes\": 1024,\n  \"throughput_mops\": 12.5,\n"
            "  \"wn.shuttles\": 7\n}\n");
}

// ---- End-to-end acceptance --------------------------------------------------

/// The ISSUE acceptance scenario: a seeded 3x3 grid with a caching proxy in
/// front of an origin; a GET that misses produces one trace whose spans form
/// a single connected causal tree crossing >= 3 ships and >= 2 services.
struct TracedCacheRun {
  sim::Simulator simulator;
  net::Topology topology = net::MakeGrid(3, 3);
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> network;
  std::unique_ptr<services::ContentOrigin> origin;
  std::unique_ptr<services::CachingService> cache;

  explicit TracedCacheRun(bool tracing = true) {
    config.telemetry.enable_tracing = tracing;
    network = std::make_unique<wli::WanderingNetwork>(simulator, topology,
                                                      config, /*seed=*/20260806);
    network->PopulateAllNodes();
    origin = std::make_unique<services::ContentOrigin>(*network, 8,
                                                       /*object_words=*/16);
    cache = std::make_unique<services::CachingService>(*network, 4, 8);
  }

  void RequestContent(net::NodeId requester, std::uint64_t content_id,
                      std::uint64_t flow) {
    ASSERT_TRUE(network
                    ->Inject(wli::Shuttle::Data(
                        requester, 4,
                        {services::kCacheOpGet,
                         static_cast<std::int64_t>(content_id)},
                        flow))
                    .ok());
    simulator.RunAll();
  }
};

TEST(Acceptance, CapsuleTraceFormsConnectedTreeAcrossShipsAndServices) {
  TracedCacheRun run;
  run.RequestContent(0, 7, 1);  // miss: 0 → 4 (cache) → 8 (origin) → back

  // Export to the Chrome trace_event format and reconstruct from the export
  // alone — the acceptance property must survive the serialization.
  std::stringstream exported;
  telemetry::WriteTraceEventJson(run.network->telemetry().spans().spans(),
                                 exported);
  const auto reconstructed = telemetry::ParseSpans(exported);
  ASSERT_FALSE(reconstructed.empty());
  const auto traces = telemetry::GroupByTrace(reconstructed);
  ASSERT_EQ(traces.size(), 1u);

  const auto& spans = traces.begin()->second;
  EXPECT_TRUE(telemetry::IsConnectedTree(spans));
  std::set<std::uint64_t> ships;
  std::set<std::string> services;
  for (const auto& span : spans) {
    ships.insert(span.ship);
    if (span.component.rfind("svc.", 0) == 0) services.insert(span.component);
  }
  EXPECT_GE(ships.size(), 3u) << telemetry::FormatTraceTree(spans);
  EXPECT_GE(services.size(), 2u) << telemetry::FormatTraceTree(spans);
  EXPECT_TRUE(services.contains("svc.caching"));
  EXPECT_TRUE(services.contains("svc.origin"));
}

TEST(Acceptance, SecondRequestHitsCacheWithShorterTrace) {
  TracedCacheRun run;
  run.RequestContent(0, 7, 1);
  run.RequestContent(2, 7, 2);
  const auto traces =
      telemetry::GroupByTrace(run.network->telemetry().spans().spans());
  ASSERT_EQ(traces.size(), 2u);
  std::vector<std::size_t> sizes;
  for (const auto& [id, spans] : traces) {
    EXPECT_TRUE(telemetry::IsConnectedTree(spans));
    sizes.push_back(spans.size());
  }
  // The hit trace never reaches the origin, so it is strictly shorter.
  EXPECT_NE(sizes[0], sizes[1]);
  EXPECT_EQ(run.cache->hits(), 1u);
  EXPECT_EQ(run.cache->misses(), 1u);
}

TEST(Acceptance, TracingIsDeterminismNeutral) {
  // The same seeded scenario with tracing on and off must make identical
  // simulation decisions: same virtual clock, same event count, same trace
  // log (the network's TraceSink, not the telemetry spans).
  TracedCacheRun traced(true);
  TracedCacheRun untraced(false);
  for (auto* run : {&traced, &untraced}) {
    run->RequestContent(0, 7, 1);
    run->RequestContent(2, 7, 2);
    run->network->Pulse();
    run->simulator.RunAll();
  }
  EXPECT_EQ(traced.simulator.now(), untraced.simulator.now());
  EXPECT_EQ(traced.simulator.dispatched(), untraced.simulator.dispatched());
  std::ostringstream traced_log, untraced_log;
  traced.network->trace().WriteJsonl(traced_log);
  untraced.network->trace().WriteJsonl(untraced_log);
  EXPECT_EQ(traced_log.str(), untraced_log.str());
  EXPECT_FALSE(traced.network->telemetry().spans().spans().empty());
  EXPECT_TRUE(untraced.network->telemetry().spans().spans().empty());
}

// ---- Shard Observatory timeline export --------------------------------------

telemetry::ShardWindowRecord MakeWindowRecord(std::uint64_t index) {
  telemetry::ShardWindowRecord record;
  record.window_index = index;
  record.virtual_start = index * 1000;
  record.virtual_end = (index + 1) * 1000;
  record.merge_wall_ns = 300;
  record.merge_handoffs = 2;
  record.shards.push_back({.dispatched = 10,
                           .handoffs_out = 1,
                           .handoffs_in = 1,
                           .wall_ns = 5000,
                           .start_ns = 100,
                           .stall_ns = 0,
                           .queue_depth = 1.0});
  record.shards.push_back({.dispatched = 4,
                           .handoffs_out = 1,
                           .handoffs_in = 1,
                           .wall_ns = 2000,
                           .start_ns = 200,
                           .stall_ns = 2900,
                           .queue_depth = 0.0});
  return record;
}

TEST(Export, ShardTimelineEmitsOneTrackPerShardPlusMerge) {
  telemetry::ShardObservatory observatory(2);
  observatory.RecordWindow(MakeWindowRecord(0));
  observatory.RecordWindow(MakeWindowRecord(1));
  std::ostringstream out;
  telemetry::WriteShardTimelineJson(observatory, out);
  const std::string json = out.str();

  // Track metadata: one named thread per shard, one merge track after them.
  EXPECT_NE(json.find("\"args\":{\"name\":\"shard 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"shard 1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"merge\"}"), std::string::npos);
  // Window slices carry the virtual-time span and per-shard load.
  EXPECT_NE(json.find("\"name\":\"window 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"window 1\""), std::string::npos);
  EXPECT_NE(json.find("\"virtual_start\":1000"), std::string::npos);
  // Shard 1 finished early: it gets a barrier slice; the straggler does not.
  EXPECT_NE(json.find("\"name\":\"barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"stall_ns\":2900"), std::string::npos);
  // Merge slices land on the merge track with their handoff volume.
  EXPECT_NE(json.find("\"name\":\"merge 0\""), std::string::npos);
  EXPECT_NE(json.find("\"handoffs\":2"), std::string::npos);
  // Valid trace shape: object wrapper, µs timestamps with ns precision.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ts\":0.100"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
}

TEST(Export, ShardTimelineSuccessiveWindowsAbut) {
  // Window 1 must start after window 0's span plus its merge: shard 0's
  // window-1 slice begins at (100 + 5000 + 300) + 100 ns = 5.500 µs.
  telemetry::ShardObservatory observatory(2);
  observatory.RecordWindow(MakeWindowRecord(0));
  observatory.RecordWindow(MakeWindowRecord(1));
  std::ostringstream out;
  telemetry::WriteShardTimelineJson(observatory, out);
  EXPECT_NE(out.str().find("\"ts\":5.500"), std::string::npos);
}

// ---- Perf counter stats publication -----------------------------------------

TEST(PerfStats, PublishAndFormatFiredProbes) {
  telemetry::perf::ResetAll();
  telemetry::perf::SetEnabled(true);
  { VIATOR_PERF_SCOPE(kSimDispatch); }
  { VIATOR_PERF_SCOPE(kSimDispatch); }
  VIATOR_PERF_COUNT(kRngDraw);
  telemetry::perf::SetEnabled(false);

  sim::StatsRegistry stats;
  telemetry::PublishPerfStats(stats);
  ASSERT_TRUE(stats.gauges().contains("perf.sim_dispatch.calls"));
  EXPECT_EQ(stats.gauges().at("perf.sim_dispatch.calls").value(), 2.0);
  EXPECT_EQ(stats.gauges().at("perf.rng_draw.calls").value(), 1.0);
  // Publication is Set(), not Add(): publishing twice must not double.
  telemetry::PublishPerfStats(stats);
  EXPECT_EQ(stats.gauges().at("perf.sim_dispatch.calls").value(), 2.0);

  const std::string report = telemetry::FormatPerfReport();
  EXPECT_NE(report.find("perf.sim_dispatch"), std::string::npos);
  EXPECT_NE(report.find("perf.rng_draw"), std::string::npos);
  // Zero-call probes are omitted from the table.
  EXPECT_EQ(report.find("perf.mailbox_drain"), std::string::npos);
  telemetry::perf::ResetAll();
}

TEST(PerfStats, EmptyAggregateFormatsPlaceholder) {
  telemetry::perf::ResetAll();
  const std::string report = telemetry::FormatPerfReport();
  EXPECT_NE(report.find("no probes fired"), std::string::npos);
}

TEST(PerfStats, RuntimeSwitchGatesProbes) {
  telemetry::perf::ResetAll();
  telemetry::perf::SetEnabled(false);
  { VIATOR_PERF_SCOPE(kMergeWindow); }
  VIATOR_PERF_COUNT(kRngDraw);
  const auto aggregate = telemetry::perf::Aggregate();
  using telemetry::perf::Metric;
  EXPECT_EQ(aggregate[static_cast<std::size_t>(Metric::kMergeWindow)].calls,
            0u);
  EXPECT_EQ(aggregate[static_cast<std::size_t>(Metric::kRngDraw)].calls, 0u);
}

/// Calls of the core-layer probes over a small network run with one pulse
/// and one shuttle carrying code, the perf plane switched `on`.
std::array<std::uint64_t, 3> CoreProbeCalls(bool on) {
  using telemetry::perf::Metric;
  auto program = vm::Assemble("noop", "push 1\nsys emit\nhalt\n");
  if (!program.ok()) {
    ADD_FAILURE() << "the probe program must assemble";
    return {};
  }
  telemetry::perf::ResetAll();
  telemetry::perf::SetEnabled(on);
  sim::Simulator simulator;
  net::Topology topology = net::MakeLine(4);
  wli::WanderingNetwork network(simulator, topology, wli::WnConfig{},
                                /*seed=*/99);
  network.PopulateAllNodes();
  EXPECT_TRUE(network.PublishProgram(*program, 0).ok());
  wli::Shuttle shuttle = wli::Shuttle::Data(0, 3, {1}, 1);
  shuttle.code_digest = program->digest();
  EXPECT_TRUE(network.Inject(std::move(shuttle)).ok());
  simulator.RunAll();
  network.Pulse();
  simulator.RunAll();
  telemetry::perf::SetEnabled(false);
  EXPECT_EQ(network.ship(3)->code_executions(), 1u);

  const auto aggregate = telemetry::perf::Aggregate();
  const auto calls = [&](Metric metric) {
    return aggregate[static_cast<std::size_t>(metric)].calls;
  };
  const std::array<std::uint64_t, 3> out = {calls(Metric::kShipConsume),
                                            calls(Metric::kEeExecute),
                                            calls(Metric::kWnPulse)};
  telemetry::perf::ResetAll();
  return out;
}

TEST(PerfStats, CoreLayerProbesFireOnlyWhenEnabled) {
  for (const std::uint64_t calls : CoreProbeCalls(/*on=*/true)) {
    EXPECT_GT(calls, 0u);
  }
  for (const std::uint64_t calls : CoreProbeCalls(/*on=*/false)) {
    EXPECT_EQ(calls, 0u);
  }
}

}  // namespace
}  // namespace viator
