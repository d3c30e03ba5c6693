// Multi-core window execution for partitioned simulations.
//
// A ShardedExecutor drives N independent Simulators — one per topology shard
// — through conservative time windows on a persistent worker pool. One
// RunWindow(deadline) call runs every simulator until the deadline (the
// window end) concurrently; the caller then performs the barrier work
// (cross-shard message exchange, hash capture) single-threaded and calls
// RunWindow again. Because each simulator is touched by exactly one worker
// per window and shards share no mutable state below the barrier, results
// are bit-identical for ANY thread count, including 1 — the single-threaded
// path is the determinism reference the parallel path is proven against.
//
// The executor is deliberately ignorant of what a "shard" is: it schedules
// Simulators and runs an optional post-window task per shard on the worker
// that finished it (used to compute per-shard state hashes off the barrier's
// critical path). Between windows, RunPerShard runs any shard-local task on
// the same pool (checkpoint capture and restore). Cross-shard coupling,
// mailboxes and window sizing live in src/shard.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace viator::sim {

class ShardedExecutor {
 public:
  /// Per-shard outcome of one window.
  struct WindowResult {
    /// Events dispatched by this shard during the window.
    std::uint64_t dispatched = 0;
    /// Wall-clock nanoseconds the shard's window run (plus post task) took.
    /// Diagnostic only — never feeds simulation state or hashes.
    std::uint64_t wall_ns = 0;
    /// Wall-clock offset of the shard's start from the window epoch (the
    /// instant RunWindow released the pool): when a worker actually picked
    /// the shard up. Diagnostic; timeline rendering only.
    std::uint64_t start_ns = 0;
  };

  /// A task for one shard. Must touch only that shard's local state.
  using ShardTask = std::function<void(std::size_t shard)>;

  /// Runs on the worker that finished shard `i`'s window, immediately after
  /// its RunUntil returns.
  using PostWindowFn = ShardTask;

  /// Borrows the simulators (must outlive the executor). `threads` caps the
  /// worker pool: 0 = hardware concurrency, 1 = run inline on the calling
  /// thread (no pool, the sequential reference path). The pool never holds
  /// more workers than simulators.
  explicit ShardedExecutor(std::vector<Simulator*> simulators,
                           std::size_t threads = 0);
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Runs every simulator until `deadline` (inclusive, as Simulator::
  /// RunUntil): shard clocks all read `deadline` afterwards. Blocks until
  /// every shard (and its post task) finished; results are indexed by shard.
  /// Deterministic for any thread count.
  const std::vector<WindowResult>& RunWindow(TimePoint deadline,
                                             const PostWindowFn& post = {});

  /// Runs `task(shard)` once per shard on the pool (inline, in shard order,
  /// at threads == 1) and blocks until every task returned. The one dispatch
  /// path: RunWindow runs its windows through it. Tasks are not charged to
  /// the window's perf probes.
  void RunPerShard(const ShardTask& task);

  std::size_t shard_count() const { return simulators_.size(); }
  std::size_t threads() const { return threads_; }

  /// Total events dispatched across all shards since construction.
  std::uint64_t total_dispatched() const { return total_dispatched_; }

 private:
  void WorkerLoop();
  void RunShard(std::size_t shard);

  std::vector<Simulator*> simulators_;
  std::size_t threads_ = 1;
  std::vector<WindowResult> results_;
  std::uint64_t total_dispatched_ = 0;

  // The window RunShard runs, set before it is handed to the pool.
  TimePoint deadline_ = 0;
  /// Wall instant the current window was released (start_ns reference).
  std::chrono::steady_clock::time_point window_epoch_{};
  const PostWindowFn* post_ = nullptr;

  // Task state handed to the pool. `generation_` bumps once per
  // RunPerShard; workers claim shard indices from `next_shard_` and the
  // last finisher signals `done_cv_`.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  const ShardTask* task_ = nullptr;
  std::size_t next_shard_ = 0;
  std::size_t pending_shards_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> pool_;
};

}  // namespace viator::sim
