// plane_harness.h — the shared harness of the measurement-plane gates
// (bench_shard_observatory, bench_memory, bench_latency) and the dispatch
// tier bench_memory shares with bench_micro_substrate.
//
// Every plane gate runs the same seeded sharded workload: 4 row bands of a
// grid with three of four shuttles confined to band 2 (the injected hot
// shard), hash_every = 1 so the per-window journal timeline is the
// neutrality witness. On top of it sit two legs every gate repeats:
//
//  - ReplayNeutrality: plane-off, plane-on and plane-on-4-threads runs must
//    make bit-identical decisions — same per-window hash timeline, rolling
//    digest, final state hash and event/handoff counts;
//  - overhead: CPU time of adjacent off/on pairs, gated on the minimum pair
//    ratio (< 3% when VIATOR_REQUIRE_OVERHEAD is set).
//
// Each bench keeps only its plane-specific phases and decides where its
// plane switches on. Environment: VIATOR_PLANE_SIDE / VIATOR_PLANE_ROUNDS
// shrink the workload, VIATOR_PLANE_REPS sets the overhead pair count;
// VIATOR_DISPATCH_SIDE / _FLOWS / _ROUNDS shape the dispatch tier.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "shard/plan.h"
#include "shard/sharded_network.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"

namespace viator::bench {

/// Unsigned environment override; `fallback` when unset or empty.
inline std::size_t EnvOr(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

/// VIATOR_REQUIRE_OVERHEAD (CI Release) arms the in-binary host gates.
inline bool RequireGates() {
  return std::getenv("VIATOR_REQUIRE_OVERHEAD") != nullptr;
}

// ---- The hot-band sharded workload ------------------------------------------

struct Workload {
  static constexpr std::size_t kLoad = 192;  // shuttles per round

  std::size_t side = 32;
  std::size_t rounds = 16;
  std::size_t windows_per_round = 4;
  std::uint64_t seed = 0xB5EED;

  static Workload FromEnv() {
    Workload w;
    w.side = EnvOr("VIATOR_PLANE_SIDE", w.side);
    w.rounds = EnvOr("VIATOR_PLANE_ROUNDS", w.rounds);
    return w;
  }
};

/// `<prefix>.grid_side`, `.rounds` and `.load`: the shape a report's pinned
/// numbers belong to.
inline void ReportWorkload(telemetry::BenchReport& report,
                           const std::string& prefix, const Workload& w) {
  report.Set(prefix + ".grid_side", static_cast<double>(w.side));
  report.Set(prefix + ".rounds", static_cast<double>(w.rounds));
  report.Set(prefix + ".load", static_cast<double>(Workload::kLoad));
}

/// One run's cost and its deterministic decision witnesses. Plane benches
/// derive their outcome from it and add the plane's own readout.
struct RunOutcome {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t state_hash = 0;
  std::uint64_t rolling_digest = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> window_hashes;
};

using WorldHook = std::function<void(shard::ShardedNetwork&)>;

/// One full run into `out`. The timed region spans injection + windows +
/// drain — structurally identical for every plane setting and thread
/// count. `start` (optional) runs once the world is built, right before the
/// timed region; `done` (optional) right after the decision witnesses are
/// read, while the world is still alive.
inline void RunSharded(const Workload& w, std::size_t threads,
                       RunOutcome& out, const WorldHook& start,
                       const WorldHook& done) {
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = threads;
  config.seed = w.seed;
  config.hash_every = 1;
  config.assignment = shard::GridRowBands(w.side, w.side, 4);
  net::Topology grid = net::MakeGrid(w.side, w.side);
  shard::ShardedNetwork world(grid, config);

  const std::uint64_t nodes = w.side * w.side;
  const std::uint64_t band_rows = w.side / 4;
  const std::uint64_t hot_lo = 2 * band_rows * w.side;
  const std::uint64_t hot_hi = 3 * band_rows * w.side - 1;
  Rng traffic(w.seed ^ 0x0B5E70A1ULL);

  if (start) start(world);
  const std::clock_t cpu_start = std::clock();
  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t flow = 1;
  for (std::size_t round = 0; round < w.rounds; ++round) {
    for (std::size_t i = 0; i < Workload::kLoad; ++i) {
      const bool hot = (i % 4) != 0;
      const std::uint64_t lo = hot ? hot_lo : 0;
      const std::uint64_t hi = hot ? hot_hi : nodes - 1;
      const auto src = static_cast<net::NodeId>(traffic.UniformInt(lo, hi));
      auto dst = static_cast<net::NodeId>(traffic.UniformInt(lo, hi));
      if (dst == src) dst = static_cast<net::NodeId>(lo + (dst - lo + 1) %
                                                              (hi - lo + 1));
      (void)world.Inject(src, dst,
                         {static_cast<std::int64_t>(round),
                          static_cast<std::int64_t>(i)},
                         flow++);
    }
    world.RunWindows(w.windows_per_round);
  }
  world.RunUntilQuiescent();
  const auto elapsed = std::chrono::steady_clock::now() - wall_start;
  const std::clock_t cpu_end = std::clock();

  out.seconds = std::chrono::duration<double>(elapsed).count();
  out.cpu_seconds =
      static_cast<double>(cpu_end - cpu_start) / CLOCKS_PER_SEC;
  out.events = world.total_dispatched();
  out.handoffs = world.stats().CounterValue("shard.handoffs");
  out.state_hash = world.StateHash();
  out.rolling_digest = world.journal().rolling_digest();
  out.window_hashes = world.journal().window_hashes();
  if (done) done(world);
}

// ---- ReplayNeutrality --------------------------------------------------------

inline bool SameDecisions(const RunOutcome& a, const RunOutcome& b,
                          const char* label) {
  bool ok = true;
  if (a.events != b.events || a.handoffs != b.handoffs) {
    std::fprintf(stderr,
                 "neutrality[%s]: the plane changed workload totals "
                 "(events %llu vs %llu, handoffs %llu vs %llu)\n",
                 label, static_cast<unsigned long long>(a.events),
                 static_cast<unsigned long long>(b.events),
                 static_cast<unsigned long long>(a.handoffs),
                 static_cast<unsigned long long>(b.handoffs));
    ok = false;
  }
  if (a.state_hash != b.state_hash) {
    std::fprintf(stderr, "neutrality[%s]: final state hash diverged\n", label);
    ok = false;
  }
  if (a.rolling_digest != b.rolling_digest) {
    std::fprintf(stderr, "neutrality[%s]: journal digest diverged\n", label);
    ok = false;
  }
  if (a.window_hashes != b.window_hashes) {
    std::fprintf(stderr,
                 "neutrality[%s]: per-window hash timeline diverged "
                 "(%zu vs %zu windows)\n",
                 label, a.window_hashes.size(), b.window_hashes.size());
    ok = false;
  }
  return ok;
}

template <typename Outcome>
struct NeutralityRuns {
  Outcome off;  // plane off, 1 thread
  Outcome on;   // plane on, 1 thread
  Outcome on4;  // plane on, 4 threads
};

/// The on/off + t1/t4 leg: a warmup (page-in, branch training), then the
/// three runs; `ok` drops on any decision divergence. `run(w, plane_on,
/// threads)` returns the bench's outcome type (derived from RunOutcome),
/// whose plane-specific comparisons stay with the bench.
template <typename RunFn>
auto RunNeutrality(const Workload& w, RunFn run, bool& ok) {
  (void)run(w, false, 1);
  NeutralityRuns<decltype(run(w, false, 1))> runs{
      run(w, false, 1), run(w, true, 1), run(w, true, 4)};
  ok &= SameDecisions(runs.off, runs.on, "on-vs-off");
  ok &= SameDecisions(runs.off, runs.on4, "t4-vs-t1");
  return runs;
}

/// Prints the neutrality verdict and pins its deterministic totals as
/// `<prefix>.events`, `.handoffs` and `.hashed_windows`.
inline void ReportNeutrality(telemetry::BenchReport& report,
                             const std::string& prefix,
                             const RunOutcome& off, bool ok) {
  std::printf("neutrality: %llu events, %llu handoffs, %zu hashed windows — "
              "%s\n",
              static_cast<unsigned long long>(off.events),
              static_cast<unsigned long long>(off.handoffs),
              off.window_hashes.size(), ok ? "bit-identical" : "DIVERGED");
  report.Set(prefix + ".events", static_cast<double>(off.events));
  report.Set(prefix + ".handoffs", static_cast<double>(off.handoffs));
  report.Set(prefix + ".hashed_windows",
             static_cast<double>(off.window_hashes.size()));
}

// ---- Enabled overhead --------------------------------------------------------

/// The paired min-ratio CPU overhead leg. Shared-runner wall clocks drift by
/// double-digit percentages, so the gate rides on process CPU time of
/// adjacent off/on pairs: preemption cannot inflate CPU time, and slow drift
/// (throttling, frequency steps) hits both halves of a pair and cancels in
/// the ratio. Single-threaded, so the measurement is the probe cost, not
/// pool jitter. The gate statistic is the MINIMUM pair ratio: a genuine
/// probe-cost regression lifts every pair, while runner noise (which swings
/// individual pairs either way) cannot push the min up. The median is the
/// better point estimate and rides along, as do best-of-N wall times.
///
/// `off`/`on` are the neutrality leg's single-threaded runs (the first
/// pair); `run(w, plane_on, 1)` supplies the other VIATOR_PLANE_REPS - 1
/// pairs (container jitter runs a few percent, so an armed gate takes 5
/// pairs, 3 otherwise). Results land under `<key_prefix>wall_off_seconds`,
/// `wall_on_seconds`, `wall_pct`, `cpu_min_pct_seconds` and
/// `cpu_median_pct_seconds`; returns false when the gate is armed and the
/// minimum breaches 3%.
template <typename RunFn>
bool RunOverheadLeg(telemetry::BenchReport& report,
                    const std::string& key_prefix, const char* plane,
                    const Workload& w, const RunOutcome& off,
                    const RunOutcome& on, RunFn run) {
  const bool require = RequireGates();
  const std::size_t reps = EnvOr("VIATOR_PLANE_REPS", require ? 5 : 3);
  double best_off = off.seconds;
  double best_on = on.seconds;
  std::vector<double> cpu_ratios;
  if (off.cpu_seconds > 0.0) {
    cpu_ratios.push_back(on.cpu_seconds / off.cpu_seconds);
  }
  for (std::size_t rep = 1; rep < reps; ++rep) {
    const RunOutcome rep_off = run(w, false, 1);
    const RunOutcome rep_on = run(w, true, 1);
    best_off = std::min(best_off, rep_off.seconds);
    best_on = std::min(best_on, rep_on.seconds);
    if (rep_off.cpu_seconds > 0.0) {
      cpu_ratios.push_back(rep_on.cpu_seconds / rep_off.cpu_seconds);
    }
  }
  std::sort(cpu_ratios.begin(), cpu_ratios.end());
  const double median_ratio =
      cpu_ratios.empty() ? 1.0 : cpu_ratios[cpu_ratios.size() / 2];
  const double min_ratio = cpu_ratios.empty() ? 1.0 : cpu_ratios.front();
  const double overhead_pct = (min_ratio - 1.0) * 100.0;
  const double median_pct = (median_ratio - 1.0) * 100.0;
  const double wall_pct =
      best_off > 0.0 ? (best_on - best_off) / best_off * 100.0 : 0.0;
  std::printf("overhead: cpu %+.2f%% min / %+.2f%% median of %zu pairs, "
              "wall best-of-%zu %+.2f%%\n",
              overhead_pct, median_pct, cpu_ratios.size(), reps, wall_pct);
  report.Set(key_prefix + "wall_off_seconds", best_off);
  report.Set(key_prefix + "wall_on_seconds", best_on);
  report.Set(key_prefix + "wall_pct", wall_pct);
  report.Set(key_prefix + "cpu_min_pct_seconds", overhead_pct);
  report.Set(key_prefix + "cpu_median_pct_seconds", median_pct);
  if (require && overhead_pct >= 3.0) {
    std::fprintf(stderr, "%s plane overhead %.2f%% breaches the 3%% gate\n",
                 plane, overhead_pct);
    return false;
  }
  return true;
}

// ---- The dispatch tier --------------------------------------------------------

/// Shape of the dispatch tier: a side x side grid (104 → 10816 ships) with
/// `flows` top-to-bottom column flows injected `rounds` times.
struct DispatchShape {
  std::size_t side = 104;
  std::uint64_t flows = 8;
  std::uint64_t rounds = 32;

  static DispatchShape FromEnv() {
    DispatchShape s;
    s.side = EnvOr("VIATOR_DISPATCH_SIDE", s.side);
    s.flows = EnvOr("VIATOR_DISPATCH_FLOWS", s.flows);
    s.rounds = EnvOr("VIATOR_DISPATCH_ROUNDS", s.rounds);
    return s;
  }
};

/// The grid with its route cache configured: column flows touch
/// flows * side distinct forwarding sources, and all of them stay resident
/// so a cached run measures the steady-state hit path, not LRU churn
/// (capacity pressure has its own ctest coverage).
inline net::Topology DispatchGrid(const DispatchShape& shape, bool cache_on) {
  net::Topology grid = net::MakeGrid(shape.side, shape.side);
  grid.SetRouteCacheEnabled(cache_on);
  grid.SetRouteCacheCapacity(shape.flows * shape.side + 1);
  return grid;
}

/// The populated dispatch-tier world: one server ship per node — the 10k
/// ship scale claim. Every forward goes through Topology::NextHop, so a
/// cached world fills one first-hop row per forwarding source and rides
/// hits from then on, while an uncached one pays a fresh per-pair BFS on
/// every hop.
struct DispatchWorld {
  DispatchWorld(const DispatchShape& dispatch_shape, bool cache_on)
      : shape(dispatch_shape),
        grid(DispatchGrid(dispatch_shape, cache_on)),
        network(simulator, grid, wli::WnConfig{}, /*seed=*/42) {
    network.PopulateAllNodes();
  }

  /// Injects every column flow `shape.rounds` times. Straight column
  /// routes: the unique shortest path from (0, col) to (side-1, col) is the
  /// column itself, so runs are trivially comparable and the hop count per
  /// shuttle is exactly side-1.
  void InjectColumnFlows() {
    const std::uint64_t spacing = shape.side / shape.flows;
    for (std::uint64_t r = 0; r < shape.rounds; ++r) {
      for (std::uint64_t f = 0; f < shape.flows; ++f) {
        const auto col = static_cast<net::NodeId>(f * spacing + spacing / 2);
        wli::Shuttle shuttle = wli::Shuttle::Data(
            col, static_cast<net::NodeId>((shape.side - 1) * shape.side + col),
            {static_cast<std::int64_t>(r)}, /*flow=*/f);
        shuttle.header.ttl = 255;  // column routes are side-1 hops; outlive 64
        (void)network.Inject(std::move(shuttle));
      }
    }
  }

  DispatchShape shape;
  sim::Simulator simulator;
  net::Topology grid;
  wli::WanderingNetwork network;
};

}  // namespace viator::bench
