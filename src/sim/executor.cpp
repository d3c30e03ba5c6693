#include "sim/executor.h"

#include <algorithm>
#include <chrono>

#include "telemetry/perf_counters.h"

namespace viator::sim {

namespace {

std::uint64_t WallNsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

ShardedExecutor::ShardedExecutor(std::vector<Simulator*> simulators,
                                 std::size_t threads)
    : simulators_(std::move(simulators)) {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  threads_ = threads == 0 ? hw : threads;
  threads_ = std::max<std::size_t>(1, std::min(threads_, simulators_.size()));
  results_.resize(simulators_.size());
  if (threads_ > 1) {
    pool_.reserve(threads_);
    for (std::size_t i = 0; i < threads_; ++i) {
      pool_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ShardedExecutor::~ShardedExecutor() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : pool_) t.join();
  }
}

void ShardedExecutor::RunShard(std::size_t shard) {
  const auto start = std::chrono::steady_clock::now();
  Simulator& simulator = *simulators_[shard];
  std::uint64_t dispatched = 0;
  {
    VIATOR_PERF_SCOPE(kExecutorWindow);
    dispatched = simulator.RunUntil(deadline_);
  }
  if (post_ != nullptr && *post_) {
    VIATOR_PERF_SCOPE(kExecutorPost);
    (*post_)(shard);
  }
  results_[shard].dispatched = dispatched;
  results_[shard].wall_ns = WallNsSince(start);
  results_[shard].start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                           window_epoch_)
          .count());
}

const std::vector<ShardedExecutor::WindowResult>& ShardedExecutor::RunWindow(
    TimePoint deadline, const PostWindowFn& post) {
  deadline_ = deadline;
  post_ = &post;
  window_epoch_ = std::chrono::steady_clock::now();
  const ShardTask run = [this](std::size_t shard) { RunShard(shard); };
  if (pool_.empty()) {
    // Sequential reference path: shards run in shard order on this thread.
    RunPerShard(run);
  } else {
    VIATOR_PERF_SCOPE(kBarrierWait);  // the workers run; this thread waits
    RunPerShard(run);
  }
  post_ = nullptr;
  for (const WindowResult& r : results_) total_dispatched_ += r.dispatched;
  return results_;
}

void ShardedExecutor::RunPerShard(const ShardTask& task) {
  if (pool_.empty()) {
    for (std::size_t i = 0; i < simulators_.size(); ++i) task(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    next_shard_ = 0;
    pending_shards_ = simulators_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_shards_ == 0; });
  task_ = nullptr;
}

void ShardedExecutor::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || generation_ != seen_generation;
    });
    if (shutdown_) return;
    seen_generation = generation_;
    while (next_shard_ < simulators_.size()) {
      const std::size_t shard = next_shard_++;
      const ShardTask* task = task_;
      lock.unlock();
      (*task)(shard);
      lock.lock();
      if (--pending_shards_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace viator::sim
