// bench_memory — the Memory Observatory gate (docs/MEMORY.md).
//
// Four phases:
//
//  1. ReplayNeutrality: the planes' seeded hot-band sharded workload
//     (bench/plane_harness.h) run counters-off, counters-on and
//     counters-on-4-threads must produce bit-identical decisions and
//     identical per-window pool-byte series. Byte accounting observes; it
//     must never steer.
//  2. Attribution at the 10k-ship dispatch tier (the harness's 104x104
//     column-flow world, single-threaded so summed peaks are exact):
//     counters are enabled before the world is built, and the per-domain
//     byte counts are deterministic functions of the workload and the
//     libstdc++ growth schedule, so they are pinned exactly in
//     bench/baselines/BENCH_memory.json. The dispatch-phase coverage —
//     attributed live-byte growth over the phase's maxrss growth — must
//     reach 80% when VIATOR_REQUIRE_OVERHEAD is set (CI Release); maxrss
//     itself is host-varying and rides along under a gate-exempt name.
//  3. Overhead: the harness's paired min-ratio CPU leg; enabled probes must
//     cost under 3% when VIATOR_REQUIRE_OVERHEAD is set, recorded always.
//  4. Growth anomalies: the health plane's MemGrowthDetector must flag a
//     synthetic monotone leak series exactly once and raise zero episodes
//     on the real workload's deterministic per-window pool-byte series.
//
// Exit nonzero on any contract violation; host-varying metrics carry
// "wall" / "seconds" / "pct" substrings the bench gate ignores by name.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "health/mem_growth.h"
#include "plane_harness.h"
#include "telemetry/mem_stats.h"
#include "telemetry/shard_metrics.h"

namespace {

using namespace viator;

using MemAggregate =
    std::array<telemetry::mem::Counter, telemetry::mem::kDomainCount>;

/// "memory.shuttle_pool" from Domain::kShuttlePool (DomainName minus its
/// "mem." prefix, under the bench report's "memory." namespace).
std::string MetricBase(std::size_t domain) {
  return std::string("memory.") +
         (telemetry::mem::DomainName(
              static_cast<telemetry::mem::Domain>(domain)) +
          4);
}

// ---- Sharded workload (neutrality, overhead, growth series) ----------------

struct MemoryRun : bench::RunOutcome {
  MemAggregate mem{};
  /// Per-window pool bytes summed over shards (deterministic), the growth
  /// detector's input series.
  std::vector<std::uint64_t> pool_series;
};

/// Counters (when on) are enabled before the world is built and the
/// aggregate is read before teardown returns the pools.
MemoryRun RunWorkload(const bench::Workload& w, bool counters_on,
                     std::size_t threads) {
  telemetry::mem::ResetAll();
  telemetry::mem::SetEnabled(counters_on);
  MemoryRun out;
  bench::RunSharded(
      w, threads, out, nullptr, [&](shard::ShardedNetwork& world) {
        out.mem = telemetry::mem::Aggregate();
        for (const telemetry::ShardWindowRecord& record :
             world.observatory().windows()) {
          std::uint64_t pool = 0;
          for (const telemetry::ShardWindowSample& s : record.shards) {
            pool += s.pool_bytes;
          }
          out.pool_series.push_back(pool);
        }
        telemetry::mem::SetEnabled(false);
      });
  return out;
}

bool SamePoolSeries(const MemoryRun& a, const MemoryRun& b,
                    const char* label) {
  if (a.pool_series == b.pool_series) return true;
  std::fprintf(stderr,
               "neutrality[%s]: per-window pool-byte series diverged\n",
               label);
  return false;
}

// ---- Dispatch-tier attribution ----------------------------------------------

struct AttributionRun {
  std::uint64_t events = 0;
  MemAggregate built{};  // after world build, before any traffic
  MemAggregate end{};    // at quiescence, world still alive
  std::uint64_t maxrss_built = 0;
  std::uint64_t maxrss_end = 0;
};

/// The harness's dispatch tier with the memory plane on from before the
/// first allocation, drained to quiescence. Single-threaded, so the summed
/// per-thread peaks are the exact high-water marks.
AttributionRun RunDispatchTier(const bench::DispatchShape& shape) {
  telemetry::mem::ResetAll();
  telemetry::mem::SetEnabled(true);
  AttributionRun run;

  bench::DispatchWorld world(shape, /*cache_on=*/true);
  run.built = telemetry::mem::Aggregate();
  run.maxrss_built = telemetry::ReadMaxRssBytes();

  world.InjectColumnFlows();
  run.events = world.simulator.RunAll();

  run.end = telemetry::mem::Aggregate();
  run.maxrss_end = telemetry::ReadMaxRssBytes();
  telemetry::mem::SetEnabled(false);
  return run;
}

}  // namespace

int main() {
  const bench::Workload w = bench::Workload::FromEnv();
  const bench::DispatchShape dispatch = bench::DispatchShape::FromEnv();
  const bool require_gates = bench::RequireGates();

  telemetry::BenchReport report("memory");
  bench::ReportWorkload(report, "memory", w);
  report.Set("memory.dispatch_ships",
             static_cast<double>(dispatch.side * dispatch.side));
  bool ok = true;

  // ---- Phase 1: ReplayNeutrality --------------------------------------
  const auto runs = bench::RunNeutrality(w, RunWorkload, ok);
  ok &= SamePoolSeries(runs.off, runs.on, "on-vs-off");
  ok &= SamePoolSeries(runs.off, runs.on4, "t4-vs-t1");
  bench::ReportNeutrality(report, "memory", runs.off, ok);
  const MemoryRun& on = runs.on;
  const MemoryRun& on4 = runs.on4;
  // Cross-thread aggregation exactness: live/alloc/free byte sums of the
  // 4-thread run must equal the single-threaded run's, domain by domain.
  for (std::size_t d = 0; d < telemetry::mem::kDomainCount; ++d) {
    if (on.mem[d].live_bytes != on4.mem[d].live_bytes ||
        on.mem[d].alloc_bytes != on4.mem[d].alloc_bytes ||
        on.mem[d].free_bytes != on4.mem[d].free_bytes) {
      std::fprintf(stderr,
                   "aggregation[%s]: t4 byte sums diverged from t1\n",
                   telemetry::mem::DomainName(
                       static_cast<telemetry::mem::Domain>(d)));
      ok = false;
    }
  }

  // ---- Phase 2: dispatch-tier attribution -----------------------------
  const AttributionRun attr = RunDispatchTier(dispatch);
  std::printf("%s", telemetry::FormatMemReport(attr.end,
                                               attr.maxrss_end).c_str());
  std::int64_t attributed_growth = 0;
  std::int64_t total_live = 0;
  std::int64_t total_peak = 0;
  for (std::size_t d = 0; d < telemetry::mem::kDomainCount; ++d) {
    const telemetry::mem::Counter& c = attr.end[d];
    total_live += c.live_bytes;
    total_peak += c.peak_bytes;
    const std::int64_t growth = c.live_bytes - attr.built[d].live_bytes;
    if (growth > 0) attributed_growth += growth;
    // The per-domain counts are exact functions of the workload and the
    // container growth schedule: pinned in the committed baseline.
    const std::string base = MetricBase(d);
    report.Set(base + ".live_bytes", static_cast<double>(c.live_bytes));
    report.Set(base + ".peak_bytes", static_cast<double>(c.peak_bytes));
    report.Set(base + ".alloc_bytes", static_cast<double>(c.alloc_bytes));
    report.Set(base + ".allocs", static_cast<double>(c.allocs));
  }
  report.Set("memory.dispatch_events", static_cast<double>(attr.events));
  report.Set("memory.total_live_bytes", static_cast<double>(total_live));
  report.Set("memory.total_peak_bytes", static_cast<double>(total_peak));

  // Coverage of the dispatch phase: bytes the observatory attributes out of
  // the bytes the process actually grew by while dispatching. maxrss is
  // host-varying (page rounding, allocator slop), so the published numbers
  // carry gate-exempt names and the 80% floor is enforced in-binary.
  const std::uint64_t rss_growth = attr.maxrss_end - attr.maxrss_built;
  const double coverage =
      rss_growth > 0
          ? static_cast<double>(attributed_growth) /
                static_cast<double>(rss_growth)
          : 1.0;
  std::printf("dispatch coverage: %lld of %llu rss-growth bytes attributed "
              "(%.1f%%)\n",
              static_cast<long long>(attributed_growth),
              static_cast<unsigned long long>(rss_growth), coverage * 100.0);
  report.Set("memory.maxrss_wall_bytes",
             static_cast<double>(attr.maxrss_end));
  report.Set("memory.coverage_wall_pct", coverage * 100.0);
  if (require_gates && coverage < 0.80) {
    std::fprintf(stderr,
                 "dispatch coverage %.1f%% below the 80%% attribution gate\n",
                 coverage * 100.0);
    ok = false;
  }

  // ---- Phase 3: enabled overhead --------------------------------------
  ok &= bench::RunOverheadLeg(report, "memory.overhead_", "memory", w,
                              runs.off, on, RunWorkload);

  // ---- Phase 4: growth anomalies --------------------------------------
  // Slack is the provisioned budget: this tier's warm-up (route caches and
  // queues filling) grows the pools by a deterministic ~2.4 MiB before
  // steady state, so a 4 MiB slack absorbs it while a genuine leak — which
  // keeps compounding — sails past.
  health::MemGrowthConfig growth_config;
  growth_config.consecutive_windows = 8;
  growth_config.slack_bytes = 4 << 20;

  // A synthetic leak — +512 KiB every window, 16 windows — compounds past
  // the slack and must be flagged exactly once.
  health::MemGrowthDetector synthetic(growth_config);
  for (sim::TimePoint window = 0; window < 16; ++window) {
    (void)synthetic.Observe(telemetry::mem::Domain::kShuttlePool,
                            (window + 1) * (512u << 10), window);
  }
  if (synthetic.events().size() != 1) {
    std::fprintf(stderr,
                 "growth detector flagged a monotone leak %zu times "
                 "(expected exactly 1)\n",
                 synthetic.events().size());
    ok = false;
  }

  // The real workload's deterministic pool-byte series (summed per window
  // over shards) must raise zero episodes: pools reach steady state.
  health::MemGrowthDetector workload(growth_config);
  for (std::size_t window = 0; window < on.pool_series.size(); ++window) {
    (void)workload.Observe(telemetry::mem::Domain::kCalendarQueue,
                           on.pool_series[window],
                           static_cast<sim::TimePoint>(window + 1));
  }
  std::printf("growth: synthetic leak flagged %zu time(s), workload raised "
              "%zu episode(s) over %zu windows\n",
              synthetic.events().size(), workload.events().size(),
              on.pool_series.size());
  if (!workload.events().empty()) {
    std::fprintf(stderr,
                 "growth detector raised %zu episodes on the steady-state "
                 "workload\n",
                 workload.events().size());
    ok = false;
  }
  report.Set("memory.growth_synthetic_events",
             static_cast<double>(synthetic.events().size()));
  report.Set("memory.growth_workload_events",
             static_cast<double>(workload.events().size()));

  telemetry::mem::ResetAll();
  (void)report.Write();
  return ok ? 0 : 1;
}
