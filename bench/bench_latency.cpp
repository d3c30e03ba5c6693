// bench_latency — the Latency Observatory gate (docs/LATENCY.md).
//
// Four phases:
//
//  1. ReplayNeutrality: the planes' seeded hot-band sharded workload
//     (bench/plane_harness.h) run plane-off, plane-on and
//     plane-on-4-threads must make bit-identical decisions. Latency
//     observes; it must never steer. On top of decision neutrality,
//     the plane itself must be thread-count-exact: the per-(stage, class)
//     sketches merged across shards after the 4-thread run must equal the
//     single-threaded run's bucket for bucket, and the per-window delivery
//     quantile series must match window for window.
//  2. Quantile pinning: per-class end-to-end delivery quantiles and stage
//     counts of the single-threaded run are pure integer functions of the
//     workload, pinned exactly in bench/baselines/BENCH_latency.json.
//  3. Overhead: the harness's paired min-ratio CPU leg; the enabled plane
//     must cost under 3% when VIATOR_REQUIRE_OVERHEAD is set, recorded
//     always.
//  4. SLO burn: the health plane's SloBurnDetector must flag a synthetic
//     breach series exactly once, stay quiet on the healthy workload's
//     per-window p99 series, and — on a deliberately congested rerun (the
//     whole load aimed at one sink) — raise exactly one slo_burn episode
//     whose exemplar trace id is live in the owning shard's span collector
//     (the wnreplay/wnscope drill-down coordinate).
//
// Exit nonzero on any contract violation; host-varying metrics carry
// "wall" / "seconds" substrings the bench gate ignores by name.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "health/slo_burn.h"
#include "plane_harness.h"
#include "telemetry/latency_plane.h"
#include "telemetry/shard_metrics.h"
#include "telemetry/span.h"

namespace {

using namespace viator;
namespace lat = telemetry::lat;

// ---- Sharded workload (neutrality, pinning, overhead, SLO series) ----------

struct LatencyRun : bench::RunOutcome {
  /// Cumulative sketches merged across every shard's lane (empty when the
  /// plane ran off).
  lat::Lane merged;
  /// Per-window delivery fold (p99 maxed, deliveries summed over shards)
  /// from the shard observatory's samples: deterministic, the SLO
  /// detector's input series.
  std::vector<std::uint64_t> p99_series;
  std::vector<std::uint64_t> delivered_series;
};

/// The plane (when on) is enabled before the world is built and the lanes
/// are merged before teardown.
LatencyRun RunWorkload(const bench::Workload& w, bool plane_on,
                       std::size_t threads) {
  lat::SetEnabled(plane_on);
  LatencyRun out;
  bench::RunSharded(
      w, threads, out, nullptr, [&](shard::ShardedNetwork& world) {
        for (std::uint32_t shard = 0; shard < world.shard_count(); ++shard) {
          world.shard_network(shard).lat_lane().MergeInto(out.merged);
        }
        for (const telemetry::ShardWindowRecord& record :
             world.observatory().windows()) {
          std::uint64_t p99 = 0;
          std::uint64_t delivered = 0;
          for (const telemetry::ShardWindowSample& s : record.shards) {
            p99 = std::max(p99, s.lat_p99_ns);
            delivered += s.lat_delivered;
          }
          out.p99_series.push_back(p99);
          out.delivered_series.push_back(delivered);
        }
        lat::SetEnabled(false);
      });
  return out;
}

/// Bucket-exactness across thread counts: every cumulative sketch and the
/// per-window fold series must be identical between t1 and t4.
bool SameSketches(const LatencyRun& a, const LatencyRun& b) {
  bool ok = true;
  for (std::size_t s = 0; s < lat::kStageCount; ++s) {
    const auto stage = static_cast<lat::Stage>(s);
    for (std::size_t c = 0; c < lat::StageClassCount(stage); ++c) {
      if (!(a.merged.Sketch(stage, c) == b.merged.Sketch(stage, c))) {
        std::fprintf(stderr,
                     "exactness: sketch %s[%zu] diverged between thread "
                     "counts\n",
                     lat::StageName(stage), c);
        ok = false;
      }
    }
  }
  if (a.p99_series != b.p99_series ||
      a.delivered_series != b.delivered_series) {
    std::fprintf(stderr,
                 "exactness: per-window delivery fold series diverged "
                 "between thread counts (%zu vs %zu windows)\n",
                 a.p99_series.size(), b.p99_series.size());
    ok = false;
  }
  return ok;
}

// ---- Congestion scenario (SLO burn with a live exemplar) -------------------

struct CongestionOutcome {
  std::size_t slo_events = 0;
  std::uint64_t exemplar_trace = 0;
  bool exemplar_resolves = false;
  std::size_t windows = 0;
  std::uint64_t worst_p99_ns = 0;
};

/// Aims the whole load at one sink so its links saturate and the per-window
/// p99 climbs past `bound_ns` (a healthy run's p99) and stays there. Windows
/// are stepped one at a time so each barrier fold feeds the detector that
/// window's quantile and worst exemplar. Tracing is on, so the exemplar
/// carries a trace id resolvable in the sink shard's span collector — the
/// coordinate `wnscope latency` hands to `wnreplay seek`.
CongestionOutcome RunCongested(const bench::Workload& w,
                               std::uint64_t bound_ns,
                               std::uint32_t burn_windows) {
  lat::SetEnabled(true);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = 1;
  config.seed = w.seed;
  config.hash_every = 0;  // raw-speed setting; no neutrality claim here
  config.assignment = shard::GridRowBands(w.side, w.side, 4);
  config.wn.telemetry.enable_tracing = true;
  // Keep every span of the overload alive: the exemplar's trace must still
  // resolve when the burn fires, long after the default ring would have
  // filled with per-hop routing spans.
  config.wn.telemetry.span_capacity = 1 << 20;
  net::Topology grid = net::MakeGrid(w.side, w.side);
  shard::ShardedNetwork world(grid, config);

  health::SloSpec spec;
  spec.quantile = 0.99;
  spec.bound_ns = bound_ns;
  spec.burn_windows = burn_windows;
  health::SloBurnDetector detector({spec});

  const std::uint64_t nodes = w.side * w.side;
  // Corner sink: the longest routes in the grid and only two ingress links,
  // so the focused load both travels far and queues hard.
  const auto sink = static_cast<net::NodeId>(nodes - 1);
  Rng traffic(w.seed ^ 0xC09657EDULL);

  CongestionOutcome out;
  // Delivery latency can never exceed the simulated horizon, so run enough
  // 1 ms windows to let the backlog age well past the bound: the sink's
  // queues stay saturated the whole time, and a delivered frame's latency
  // tracks the age of the backlog in front of it.
  const std::size_t windows =
      3 * (bound_ns / static_cast<std::size_t>(sim::kMillisecond)) +
      12 * static_cast<std::size_t>(burn_windows);
  std::uint64_t flow = 1;
  for (std::size_t window = 0; window < windows; ++window) {
    // Sustained overload: every window pours a double round at one sink, so
    // the backlog — and with it the end-to-end p99 — grows past any bound a
    // healthy run can justify.
    for (std::size_t i = 0; i < 2 * bench::Workload::kLoad; ++i) {
      auto src = static_cast<net::NodeId>(traffic.UniformInt(0, nodes - 1));
      if (src == sink) src = static_cast<net::NodeId>((sink + 1) % nodes);
      (void)world.Inject(src, sink, {static_cast<std::int64_t>(i)}, flow++);
    }
    world.RunWindows(1);
    ++out.windows;

    // The window's delivery fold, maxed over shards; the worst exemplar of
    // the worst shard is the drill-down coordinate the episode reports.
    std::uint64_t p99 = 0;
    std::uint64_t trace = 0;
    for (std::uint32_t shard = 0; shard < world.shard_count(); ++shard) {
      const lat::Lane::WindowStats& fold = world.LatencyWindow(shard);
      if (fold.p99_ns > p99) {
        p99 = fold.p99_ns;
        trace = fold.worst.empty() ? 0 : fold.worst.front().trace_id;
      }
    }
    out.worst_p99_ns = std::max(out.worst_p99_ns, p99);
    const auto event = detector.Observe(
        0, p99, static_cast<sim::TimePoint>(window + 1), trace);
    if (event.has_value()) {
      out.exemplar_trace = trace;
      // Resolve the exemplar: with tracing on, the worst delivery's trace
      // must be live in a shard's span collector (its inject span lives on
      // the source shard, its consume span on the sink's) — the coordinates
      // `wnscope latency` prints and `wnreplay seek` accepts.
      for (std::uint32_t shard = 0;
           shard < world.shard_count() && !out.exemplar_resolves; ++shard) {
        const auto& spans =
            world.shard_network(shard).telemetry().spans().spans();
        for (const telemetry::SpanRecord& s : spans) {
          if (s.trace_id == trace) {
            out.exemplar_resolves = true;
            break;
          }
        }
      }
      // The alert fired and resolved: the scenario's job is done (episode
      // dedup under a sustained breach is the synthetic phase's claim).
      break;
    }
  }
  out.slo_events = detector.events().size();
  lat::SetEnabled(false);
  return out;
}

}  // namespace

int main() {
  const bench::Workload w = bench::Workload::FromEnv();

  telemetry::BenchReport report("latency");
  bench::ReportWorkload(report, "latency", w);
  bool ok = true;

  // ---- Phase 1: ReplayNeutrality + thread-count exactness --------------
  const auto runs = bench::RunNeutrality(w, RunWorkload, ok);
  ok &= SameSketches(runs.on, runs.on4);
  bench::ReportNeutrality(report, "latency", runs.off, ok);
  const LatencyRun& on = runs.on;

  // ---- Phase 2: quantile pinning ---------------------------------------
  // Integer functions of the workload: pinned exactly in the committed
  // baseline, for every class the workload exercises and for the stage
  // totals. The delivery count must cover every injected shuttle (the
  // workload has no losses), and drops must be zero.
  const lat::Stage kDelivery = lat::Stage::kDelivery;
  for (std::size_t c = 0; c < lat::kClassCount; ++c) {
    const lat::LatencySketch& sketch = on.merged.Sketch(kDelivery, c);
    const std::string base = std::string("latency.delivery.") +
                             lat::ClassName(c);
    report.Set(base + ".count", static_cast<double>(sketch.count()));
    report.Set(base + ".p50_ns",
               static_cast<double>(sketch.ValueAtQuantile(0.50)));
    report.Set(base + ".p95_ns",
               static_cast<double>(sketch.ValueAtQuantile(0.95)));
    report.Set(base + ".p99_ns",
               static_cast<double>(sketch.ValueAtQuantile(0.99)));
  }
  const lat::LatencySketch& data =
      on.merged.Sketch(kDelivery, 0 /* kData */);
  std::printf("pinning: data-class delivery p50/p95/p99 = %llu/%llu/%llu ns "
              "over %llu deliveries\n",
              static_cast<unsigned long long>(data.ValueAtQuantile(0.50)),
              static_cast<unsigned long long>(data.ValueAtQuantile(0.95)),
              static_cast<unsigned long long>(data.ValueAtQuantile(0.99)),
              static_cast<unsigned long long>(data.count()));
  report.Set("latency.hop_count",
             static_cast<double>(on.merged.Sketch(lat::Stage::kHop, 0)
                                     .count()));
  report.Set("latency.queue_count",
             static_cast<double>(on.merged.Sketch(lat::Stage::kQueue, 0)
                                     .count()));
  report.Set("latency.delivered", static_cast<double>(
                                      on.merged.DeliveredCount()));
  report.Set("latency.dropped", static_cast<double>(
                                    on.merged.DroppedCount()));
  if (on.merged.DeliveredCount() == 0) {
    std::fprintf(stderr, "pinning: the plane recorded zero deliveries\n");
    ok = false;
  }

  // ---- Phase 3: enabled overhead --------------------------------------
  ok &= bench::RunOverheadLeg(report, "latency.overhead_", "latency", w,
                              runs.off, on, RunWorkload);

  // ---- Phase 4: SLO burn ----------------------------------------------
  // A synthetic breach series — p99 at double the bound for twice the burn
  // threshold — must be flagged exactly once (episode dedup holds).
  {
    health::SloSpec spec;
    spec.bound_ns = 1'000'000;
    spec.burn_windows = 4;
    health::SloBurnDetector synthetic({spec});
    for (sim::TimePoint window = 1; window <= 8; ++window) {
      (void)synthetic.Observe(0, 2'000'000, window, /*exemplar_trace=*/0x1d);
    }
    if (synthetic.events().size() != 1) {
      std::fprintf(stderr,
                   "slo detector flagged a sustained breach %zu times "
                   "(expected exactly 1)\n",
                   synthetic.events().size());
      ok = false;
    }
    report.Set("latency.slo_synthetic_events",
               static_cast<double>(synthetic.events().size()));
  }

  // The healthy workload's own per-window p99 series must raise zero
  // episodes against a bound provisioned above its worst window.
  const std::uint64_t healthy_p99 =
      *std::max_element(on.p99_series.begin(), on.p99_series.end());
  {
    health::SloSpec spec;
    spec.bound_ns = healthy_p99;  // its own ceiling: nothing exceeds it
    spec.burn_windows = 4;
    health::SloBurnDetector workload({spec});
    for (std::size_t window = 0; window < on.p99_series.size(); ++window) {
      (void)workload.Observe(0, on.p99_series[window],
                             static_cast<sim::TimePoint>(window + 1));
    }
    if (!workload.events().empty()) {
      std::fprintf(stderr,
                   "slo detector raised %zu episodes on the healthy "
                   "workload\n",
                   workload.events().size());
      ok = false;
    }
    report.Set("latency.slo_workload_events",
               static_cast<double>(workload.events().size()));
  }

  // Congestion: the load aimed at one sink must burn the healthy-p99 SLO in
  // exactly one episode, and its exemplar trace must resolve to real spans.
  const CongestionOutcome congested = RunCongested(w, healthy_p99, 4);
  std::printf("slo: congested run p99 peaked at %llu ns against the %llu ns "
              "bound — %zu episode(s) over %zu windows, exemplar trace "
              "%016llx %s\n",
              static_cast<unsigned long long>(congested.worst_p99_ns),
              static_cast<unsigned long long>(healthy_p99),
              congested.slo_events, congested.windows,
              static_cast<unsigned long long>(congested.exemplar_trace),
              congested.exemplar_resolves ? "resolves" : "UNRESOLVED");
  if (congested.slo_events != 1) {
    std::fprintf(stderr,
                 "congestion raised %zu slo_burn episodes (expected exactly "
                 "1)\n",
                 congested.slo_events);
    ok = false;
  }
  if (congested.exemplar_trace == 0 || !congested.exemplar_resolves) {
    std::fprintf(stderr,
                 "slo_burn exemplar trace %016llx does not resolve in the "
                 "span collector\n",
                 static_cast<unsigned long long>(congested.exemplar_trace));
    ok = false;
  }
  report.Set("latency.slo_congested_events",
             static_cast<double>(congested.slo_events));
  report.Set("latency.slo_exemplar_resolves",
             congested.exemplar_resolves ? 1.0 : 0.0);

  (void)report.Write();
  return ok ? 0 : 1;
}
