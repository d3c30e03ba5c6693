// bench_shard_observatory — the perf-plane gate (docs/PERF.md).
//
// Three phases over the planes' seeded hot-band sharded workload
// (bench/plane_harness.h: 4 row bands of a grid, traffic deliberately
// skewed into band 2):
//
//  1. ReplayNeutrality: counters-off, counters-on and counters-on-4-threads
//     runs must produce bit-identical decisions. The perf plane observes;
//     it must never steer.
//  2. Straggler detection: the Shard Observatory's report must name the
//     injected hot shard (band 2) as hot_shard_by_events, with a load
//     imbalance index well away from 1.0. These values are deterministic
//     (pure functions of seed + plan), so they are pinned against
//     bench/baselines/BENCH_shard_observatory.json by the CI gate.
//  3. Overhead: the harness's paired min-ratio CPU leg; enabled counters
//     must stay under 3% when VIATOR_REQUIRE_OVERHEAD is set (CI Release),
//     recorded always.
//
// Exit nonzero on any contract violation; wall metrics carry "wall" in
// their names so the bench gate ignores them.
#include <cstdio>

#include "plane_harness.h"
#include "telemetry/perf_stats.h"
#include "telemetry/shard_metrics.h"

namespace {

using namespace viator;

struct ObservatoryRun : bench::RunOutcome {
  telemetry::StragglerReport report;
};

/// Counters switch on once the world is built and off as soon as the timed
/// region ends.
ObservatoryRun RunWorkload(const bench::Workload& w, bool counters_on,
                           std::size_t threads) {
  telemetry::perf::ResetAll();
  ObservatoryRun out;
  bench::RunSharded(
      w, threads, out,
      [&](shard::ShardedNetwork&) {
        telemetry::perf::SetEnabled(counters_on);
      },
      [&](shard::ShardedNetwork& world) {
        telemetry::perf::SetEnabled(false);
        out.report = world.observatory().Report();
      });
  return out;
}

}  // namespace

int main() {
  const bench::Workload w = bench::Workload::FromEnv();

  telemetry::BenchReport report("shard_observatory");
  bench::ReportWorkload(report, "observatory", w);
  bool ok = true;

  // ---- Phase 1: ReplayNeutrality --------------------------------------
  const auto runs = bench::RunNeutrality(w, RunWorkload, ok);
  bench::ReportNeutrality(report, "observatory", runs.off, ok);

  // ---- Phase 2: straggler / imbalance detection -----------------------
  const telemetry::StragglerReport& straggler = runs.on.report;
  std::printf("%s", straggler.Format().c_str());
  report.Set("observatory.hot_shard",
             static_cast<double>(straggler.hot_shard_by_events));
  report.Set("observatory.imbalance_events", straggler.imbalance_events);
  report.Set("observatory.report_windows",
             static_cast<double>(straggler.windows));
  if (straggler.hot_shard_by_events != 2) {
    std::fprintf(stderr,
                 "straggler report missed the injected hot shard: named %u, "
                 "expected 2\n",
                 straggler.hot_shard_by_events);
    ok = false;
  }
  if (straggler.imbalance_events < 1.5) {
    std::fprintf(stderr,
                 "imbalance index %.3f too close to balanced for a 3:1 "
                 "skewed workload\n",
                 straggler.imbalance_events);
    ok = false;
  }

  // ---- Phase 3: enabled overhead --------------------------------------
  ok &= bench::RunOverheadLeg(report, "overhead.", "perf", w, runs.off,
                              runs.on, RunWorkload);

  telemetry::perf::ResetAll();
  (void)report.Write();
  return ok ? 0 : 1;
}
