// Per-shard telemetry naming, publishing, and the Shard Observatory for the
// sharded simulation core.
//
// The sharded core (src/shard) runs N private worlds; this helper gives
// their merge-layer metrics one stable naming scheme — `shard.<id>.<metric>`
// under the repo-wide dotted convention — so every existing exporter
// (Prometheus text, JSON, CSV) renders per-shard series without knowing what
// a shard is. Published per window from the single-threaded barrier.
//
// The ShardObservatory sits on top: it retains per-window records (bounded),
// accumulates per-shard totals, and folds them into a straggler /
// critical-path report — which shard the windows wait for, how skewed the
// event load is, and what fraction of parallel capacity idles at barriers.
// Everything here is diagnostic: wall-clock fields never feed simulation
// state, hashes, or journals (docs/PARALLEL.md, docs/PERF.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.h"
#include "sim/time.h"

namespace viator::telemetry {

/// One shard's merge-layer sample for a single window.
struct ShardWindowSample {
  /// Events the shard dispatched during the window.
  std::uint64_t dispatched = 0;
  /// Cross-shard handoffs the shard emitted / received at the barrier.
  std::uint64_t handoffs_out = 0;
  std::uint64_t handoffs_in = 0;
  /// Wall-clock nanoseconds the shard's window run took on its worker
  /// (diagnostic, never feeds simulation state).
  std::uint64_t wall_ns = 0;
  /// Wall-clock offset of the shard's window start from the window epoch —
  /// when its worker actually picked it up. Timeline rendering only.
  std::uint64_t start_ns = 0;
  /// Wall-clock nanoseconds the shard idled waiting for the window's slowest
  /// shard (load-imbalance signal).
  std::uint64_t stall_ns = 0;
  /// Event-queue occupancy after the window ran.
  double queue_depth = 0.0;
  /// Heap bytes held by the shard's pools after the window ran (calendar
  /// queue + event slots + shuttle pool + route cache). Deterministic —
  /// unlike the wall fields, byte series are pinned by benches and drawn
  /// as Perfetto counter tracks.
  std::uint64_t pool_bytes = 0;
  /// Latency-plane window fold (telemetry/latency_plane.h): end-to-end
  /// delivery quantiles over the shuttles this shard delivered during the
  /// window, in simulated nanoseconds, and how many deliveries the fold
  /// covers. Pure sim-time arithmetic — deterministic across thread counts,
  /// pinned by bench_latency, drawn as Perfetto counter tracks. All zero
  /// when the latency plane is off or nothing was delivered.
  std::uint64_t lat_p50_ns = 0;
  std::uint64_t lat_p95_ns = 0;
  std::uint64_t lat_p99_ns = 0;
  std::uint64_t lat_delivered = 0;
};

/// "shard.<id>.<metric>" (the dotted form exporters sanitize themselves).
std::string ShardMetricName(std::uint32_t shard, std::string_view metric);

/// Adds the sample into `stats`: counters shard.<id>.{dispatched,
/// handoffs_out, handoffs_in, wall_ns, stall_ns, lat_delivered}, gauges
/// shard.<id>.{queue_depth, pool_bytes, lat_p50_ns, lat_p95_ns, lat_p99_ns}
/// (the lat gauges only when the sample folded deliveries).
void PublishShardWindow(sim::StatsRegistry& stats, std::uint32_t shard,
                        const ShardWindowSample& sample);

/// One window as the observatory retains it.
struct ShardWindowRecord {
  std::uint64_t window_index = 0;
  /// Virtual time span the window covered ((k-1)·W, k·W].
  sim::TimePoint virtual_start = 0;
  sim::TimePoint virtual_end = 0;
  /// Wall cost of the single-threaded barrier merge and the handoffs it
  /// moved.
  std::uint64_t merge_wall_ns = 0;
  std::uint64_t merge_handoffs = 0;
  /// Per-shard samples, indexed by shard id (size == shard_count).
  std::vector<ShardWindowSample> shards;
};

/// Whole-run accumulation for one shard (never dropped, unlike windows).
struct ShardTotals {
  std::uint64_t dispatched = 0;
  std::uint64_t handoffs_out = 0;
  std::uint64_t handoffs_in = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t stall_ns = 0;
  /// Windows in which this shard was the slowest (the one the barrier
  /// waited for). Ties go to the lowest shard id.
  std::uint64_t straggler_windows = 0;
};

/// The folded straggler / critical-path view of a run.
struct StragglerReport {
  std::uint64_t windows = 0;
  std::size_t shard_count = 0;

  /// The hot shard by dispatched events — deterministic for a given seed
  /// and plan (same on every machine and thread count), so benches can pin
  /// it against a baseline. Ties go to the lowest shard id.
  std::uint32_t hot_shard_by_events = 0;
  /// The shard that was the straggler most often, by wall clock —
  /// host-specific diagnostic.
  std::uint32_t hot_shard_by_wall = 0;

  /// max/mean of per-shard dispatched totals: 1.0 = perfectly balanced,
  /// approaching shard_count = one shard does everything. Deterministic.
  double imbalance_events = 1.0;
  /// Same index over per-shard wall totals (diagnostic).
  double imbalance_wall = 1.0;
  /// Fraction of total parallel capacity (shard-ns under the windows'
  /// critical path) spent idling at barriers: Σ stall / Σ (wall + stall).
  double barrier_stall_ratio = 0.0;
  /// Σ per-window max wall / Σ per-window total wall: the share of all
  /// shard work that sat on the critical path. 1/shard_count is perfect
  /// overlap, 1.0 is fully serialized.
  double critical_path_ratio = 0.0;

  std::vector<ShardTotals> shards;

  /// Human-readable table + verdict (wnscope timeline, bench output).
  std::string Format() const;
};

/// Bounded per-window retention + whole-run totals + report folding.
/// Single-threaded (barrier context), like the rest of the merge layer.
class ShardObservatory {
 public:
  /// Per-window records retained; totals see every window regardless.
  static constexpr std::size_t kDefaultWindowCapacity = 1024;

  explicit ShardObservatory(std::size_t shard_count = 0);

  /// Folds one window in. Totals always accumulate; the record itself is
  /// retained only while under kDefaultWindowCapacity (front of the run is
  /// kept, later windows are counted in windows_dropped — same policy as
  /// the span collector).
  void RecordWindow(ShardWindowRecord record);

  /// Re-dimensions and zeroes everything (the scenario-boundary reset hook).
  void Reset(std::size_t shard_count);
  void Reset() { Reset(shard_count_); }

  StragglerReport Report() const;

  /// Mirrors the report's headline indices into `stats` as gauges:
  /// shard.imbalance_events, shard.imbalance_wall, shard.barrier_stall_ratio,
  /// shard.straggler (hot shard id by events). Idempotent.
  void PublishStats(sim::StatsRegistry& stats) const;

  std::size_t shard_count() const { return shard_count_; }
  std::uint64_t windows_seen() const { return windows_seen_; }
  std::uint64_t windows_dropped() const { return windows_dropped_; }
  const std::vector<ShardWindowRecord>& windows() const { return windows_; }
  const std::vector<ShardTotals>& totals() const { return totals_; }

 private:
  std::size_t shard_count_ = 0;
  std::vector<ShardWindowRecord> windows_;
  std::vector<ShardTotals> totals_;
  std::uint64_t windows_seen_ = 0;
  std::uint64_t windows_dropped_ = 0;
  /// Σ per-window max wall (critical path) and Σ per-window total wall.
  std::uint64_t critical_path_wall_ns_ = 0;
  std::uint64_t total_wall_ns_ = 0;
  std::uint64_t total_stall_ns_ = 0;
};

}  // namespace viator::telemetry
