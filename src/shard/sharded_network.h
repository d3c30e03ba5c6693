// The sharded parallel simulation core.
//
// A ShardedNetwork partitions one global topology into shards (ShardPlan),
// builds one complete shard-local world per shard — its own Simulator, its
// own induced Topology, its own WanderingNetwork with an independently
// derived RNG sub-stream — and steps all of them through conservative time
// windows on a ShardedExecutor worker pool. Within a window shards share
// nothing; cross-shard shuttles leave through gateway ships (the boundary
// handler hook in src/core), ride mutex-striped mailboxes, and are merged
// into their destination shard at the window barrier in a deterministic
// total order. The window length is the minimum cross-shard link latency,
// so no message can arrive inside the window it was sent in: causality is
// conservative, never speculative.
//
// Determinism is the contract, not a hope: the same ShardedNetwork stepped
// with 1 thread and with N threads makes bit-identical decisions, proven by
// per-window state hashes (per shard and merged) fed into a DecisionJournal
// that DivergenceAuditor can diff and bisect exactly like a single-threaded
// flight recording. Checkpoints capture every shard through its own
// GenesisManager plus the merge-layer state, and restore resumes
// bit-identically from any quiescent window boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/status.h"
#include "core/wandering_network.h"
#include "genesis/manager.h"
#include "net/topology.h"
#include "replay/journal.h"
#include "shard/mailbox.h"
#include "shard/plan.h"
#include "sim/executor.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "telemetry/latency_plane.h"
#include "telemetry/shard_metrics.h"

namespace viator::shard {

struct ShardedConfig {
  std::size_t shard_count = 4;

  /// Worker threads for the window executor: 0 = hardware concurrency,
  /// 1 = the sequential reference path (same decisions, one core).
  std::size_t threads = 0;

  /// Seed of the whole sharded world; shard s derives its network seed as
  /// DeriveSubstreamSeed(seed, s), so shard streams never correlate and do
  /// not depend on thread scheduling.
  std::uint64_t seed = 0x5eed;

  /// Capture per-shard + merged state hashes every N windows (0 = never —
  /// the raw-speed setting; 1 = every window, the bisection-exact setting).
  std::size_t hash_every = 1;

  /// Partitioner; defaults to ContiguousBlocks(shard_count).
  ShardAssignment assignment;

  /// Per-shard network configuration (telemetry switches, quotas, ...).
  wli::WnConfig wn;
};

class ShardedNetwork {
 public:
  /// Window length when the plan has no cross-shard links (single shard or
  /// fully partitioned shards); otherwise min cross latency wins.
  static constexpr sim::Duration kDefaultWindow = sim::kMillisecond;

  /// Builds the sharded world over a copy of `global`. `populate` = true
  /// creates one server ship per node in every shard; `populate` = false
  /// builds empty shard shells to RestoreCheckpoint() into (the plan and
  /// window geometry still come from `global` + `config`, which must match
  /// the capturing world's).
  ShardedNetwork(const net::Topology& global, const ShardedConfig& config,
                 bool populate = true);
  ~ShardedNetwork();

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  // ---- Workload injection (between windows only) ----

  /// Injects a data shuttle from global node `src` to global node `dst`.
  /// Same-shard pairs go straight into the owning shard; cross-shard pairs
  /// are addressed to the exit gateway with transit metadata and travel
  /// shard to shard across window boundaries.
  Status Inject(net::NodeId src, net::NodeId dst,
                std::vector<std::int64_t> payload, std::uint64_t flow = 0);

  /// Runs one metamorphosis pulse on every shard network, in shard order
  /// (barrier-time operation, deterministic).
  void PulseAll();

  // ---- Window-stepped execution ----

  /// Runs `count` conservative windows (all shards in parallel, one barrier
  /// merge per window). Returns events dispatched across all shards.
  std::uint64_t RunWindows(std::size_t count);

  /// Runs windows until every shard queue and mailbox is empty, capped at
  /// `max_windows`. Returns events dispatched.
  std::uint64_t RunUntilQuiescent(std::size_t max_windows = 1 << 20);

  /// True when no shard has pending events and no handoff is in flight —
  /// the only state checkpoints can capture.
  bool IsQuiescent() const;

  std::uint64_t window_index() const { return window_index_; }
  sim::Duration window() const { return window_; }
  /// Virtual time of the last window barrier.
  sim::TimePoint now() const { return window_index_ * window_; }

  // ---- Determinism proof surface ----

  /// Merged journal: per-shard kShardHash records plus the merged per-window
  /// hash timeline DivergenceAuditor binary-searches.
  replay::DecisionJournal& journal() { return journal_; }
  const replay::DecisionJournal& journal() const { return journal_; }

  /// Combined state hash right now (plan digest, every shard's MixDigest in
  /// shard order): the value the merged per-window hashes are built from.
  std::uint64_t StateHash() const;

  /// Sum of shuttles consumed across every shard (workload progress).
  std::uint64_t Delivered() const;

  // ---- Checkpoint / restore (quiescent window boundaries only) ----

  Result<std::vector<std::byte>> CaptureCheckpoint();
  Status RestoreCheckpoint(std::span<const std::byte> bytes);

  // ---- Access ----

  const ShardPlan& plan() const { return plan_; }
  std::size_t shard_count() const { return plan_.shard_count(); }
  std::size_t threads() const { return executor_->threads(); }
  wli::WanderingNetwork& shard_network(ShardId shard) {
    return *networks_[shard];
  }
  sim::Simulator& shard_simulator(ShardId shard) { return *simulators_[shard]; }
  /// Merge-layer metrics: per-shard queue depth, handoffs, stall time, plus
  /// whole-run counters. Exported via the standard telemetry exporters.
  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }
  /// Per-window performance plane: straggler report, imbalance indices,
  /// the wnscope timeline source (docs/PERF.md).
  const telemetry::ShardObservatory& observatory() const {
    return observatory_;
  }
  telemetry::ShardObservatory& observatory() { return observatory_; }
  /// The latency plane's fold of the last window that ran on `shard`:
  /// delivery quantiles plus the worst-K tail exemplars (trace ids for the
  /// wnscope drill-down / wnreplay seek handoff). Empty when the plane is
  /// off or no window has run. Barrier-time read only.
  const telemetry::lat::Lane::WindowStats& LatencyWindow(ShardId shard) const;
  std::uint64_t total_dispatched() const { return executor_->total_dispatched(); }
  /// Handoffs whose zero-latency arrival had to be deferred to the next
  /// window boundary (only possible when a cross link has latency < window).
  std::uint64_t clamped_handoffs() const { return clamped_handoffs_; }

 private:
  struct ShardSlot;  // per-shard world (defined in the .cpp)

  void InstallBoundaryHandler(ShardId shard);
  void OnBoundary(ShardId shard, wli::Ship& gateway, wli::Shuttle shuttle);
  /// Returns the number of handoffs merged at this barrier.
  std::size_t MergeWindow(sim::TimePoint window_end, bool hash_due);
  std::uint64_t ShardHash(ShardId shard) const;

  ShardedConfig config_;
  net::Topology global_;
  ShardPlan plan_;
  sim::Duration window_ = 0;
  std::uint64_t plan_digest_ = 0;

  std::vector<std::unique_ptr<ShardSlot>> shards_;
  // Borrowed views into shards_ (stable addresses) for the executor.
  std::vector<sim::Simulator*> simulators_;
  std::vector<wli::WanderingNetwork*> networks_;

  MailboxGrid mailbox_;
  std::unique_ptr<sim::ShardedExecutor> executor_;
  replay::DecisionJournal journal_;
  sim::StatsRegistry stats_;
  telemetry::ShardObservatory observatory_;

  std::uint64_t window_index_ = 0;
  std::uint64_t clamped_handoffs_ = 0;
  std::uint64_t unroutable_handoffs_ = 0;
};

}  // namespace viator::shard
