// Cycle-level performance counters for the hot paths of the simulation core,
// in the style of nginx-vod's ngx_perf_counters: a fixed enum of probe
// points, per-thread counter blocks (no sharing, no atomics on the hot
// path), and an rdtsc-based cycle clock with a steady_clock fallback.
//
// The switch, the registry and the cost contract are the planes' shared kit
// (telemetry/plane.h, docs/OBSERVABILITY.md); runtime on costs two
// cycle-clock reads per timed probe, one increment per counting probe.
// Counter values are measurements of the host machine and never steer the
// simulation (ReplayNeutrality, gated by bench_shard_observatory).
//
// The only out-of-line helpers (report formatting, StatsRegistry
// publication) live in perf_counters.cpp inside viator_telemetry, which only
// upper layers call.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "telemetry/plane.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace viator::telemetry::perf {

/// The instrumented hot paths. Extend here, name in MetricName(), probe at
/// the call site — the aggregation, export and report layers pick new
/// entries up automatically.
enum class Metric : std::uint8_t {
  kSimDispatch = 0,   // one simulator event: pop, tombstone check, callback
  kRngDraw,           // one raw xoshiro draw (counted, not timed)
  kRouteNextHop,      // per-hop next-hop lookup in WanderingNetwork::Dispatch
  kGatewayRoute,      // boundary-handler routing of a cross-shard shuttle
  kMailboxPush,       // stripe lock acquire + deposit of one handoff
  kMailboxDrain,      // barrier drain + deterministic sort of all stripes
  kExecutorWindow,    // one shard's RunUntil(window_end) on its worker
  kExecutorPost,      // post-window task (per-shard state hash)
  kBarrierWait,       // caller blocked waiting for the window's last shard
  kMergeWindow,       // single-threaded handoff merge at the barrier
  kRouteCacheHit,     // NextHop answered from a live cached row (counted)
  kRouteCacheMiss,    // NextHop had to (re)fill a row (counted)
  kRouteCacheFill,    // one full BFS from a destination filling a cache row
  kShipConsume,       // Ship::Consume: dock, role handler or EE, sink
  kEeExecute,         // Ship::ExecuteShuttleCode: one WanderScript EE run
  kWnPulse,           // WanderingNetwork::Pulse: one autopoietic pulse
  kCount,
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kCount);

/// Stable dotted metric name ("perf.sim_dispatch"), the exporters' key.
const char* MetricName(Metric metric);

/// One probe point's accumulated cost on one thread.
struct Counter {
  std::uint64_t calls = 0;
  std::uint64_t cycles = 0;
  std::uint64_t max_cycles = 0;

  void Merge(const Counter& other) {
    calls += other.calls;
    cycles += other.cycles;
    if (other.max_cycles > max_cycles) max_cycles = other.max_cycles;
  }
};

using Registry = plane::Registry<Counter, kMetricCount>;

/// Cycle clock: rdtsc where available (x86-64; ~20 cycles, monotonic enough
/// for deltas on any post-2008 part with constant_tsc), otherwise
/// steady_clock nanoseconds. Units are "ticks" either way — ratios and
/// shares are meaningful, absolute values are host-specific diagnostics.
inline std::uint64_t Cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// The runtime switch. Off (default): every probe costs one predicted
/// branch. Per-thread counts accumulate until ResetAll().
inline bool Enabled() { return plane::Switch<Metric>::On(); }
inline void SetEnabled(bool on) { plane::Switch<Metric>::Set(on); }

inline std::array<Counter, kMetricCount> Aggregate() {
  return Registry::Instance().Aggregate();
}
inline void ResetAll() { Registry::Instance().ResetAll(); }

/// Counting probe body (untimed): one branch off, branch + increment on.
inline void Count(Metric metric) {
  if (!Enabled()) return;
  ++Registry::Local().counters[static_cast<std::size_t>(metric)].calls;
}

/// Records one timed sample (used by Timer; callable directly when the
/// caller already has a cycle delta).
inline void Record(Metric metric, std::uint64_t cycles) {
  if (!Enabled()) return;
  Registry::Local().counters[static_cast<std::size_t>(metric)].Merge(
      {1, cycles, cycles});
}

/// RAII timed probe: samples Cycles() on entry and exit. The enabled check
/// happens once, at construction — flipping the switch mid-scope loses or
/// keeps that one sample, never corrupts.
class Timer {
 public:
  explicit Timer(Metric metric) : metric_(metric), armed_(Enabled()) {
    if (armed_) start_ = Cycles();
  }
  ~Timer() {
    if (armed_) Record(metric_, Cycles() - start_);
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  Metric metric_;
  bool armed_;
  std::uint64_t start_ = 0;
};

}  // namespace viator::telemetry::perf

// The probe macros instrumented code uses.
#define VIATOR_PERF_CAT2(a, b) a##b
#define VIATOR_PERF_CAT(a, b) VIATOR_PERF_CAT2(a, b)
#define VIATOR_PERF_SCOPE(metric)                    \
  ::viator::telemetry::perf::Timer VIATOR_PERF_CAT(  \
      viator_perf_timer_, __LINE__)(::viator::telemetry::perf::Metric::metric)
#define VIATOR_PERF_COUNT(metric) \
  ::viator::telemetry::perf::Count(::viator::telemetry::perf::Metric::metric)
