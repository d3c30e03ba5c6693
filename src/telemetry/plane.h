// The shared kit of the three measurement planes — cycles
// (telemetry/perf_counters.h), bytes (telemetry/mem_counters.h) and
// latency (telemetry/latency_plane.h): the per-plane runtime switch and the
// per-thread counter-block registry.
//
// Cost contract, identical for every plane (docs/OBSERVABILITY.md):
//  - runtime off (the default): one relaxed atomic load + predicted branch
//    per probe;
//  - runtime on: plane-specific work against this thread's private block
//    (or, for latency, the network's own lane);
//  - replay-neutral: no plane value ever feeds a simulation decision, a
//    snapshot, a journal or a hash;
//  - under 3% CPU when on, gated per plane by its bench.
//
// Deliberately self-contained (standard library only, no sim/net/core
// includes) so the layers below telemetry — base/, sim/ — can embed probes
// without inverting the library dependency order.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace viator::telemetry::plane {

/// The runtime switch of the plane tagged `Tag` (the plane's enum type).
/// Off by default; flip it around a measured region.
template <typename Tag>
class Switch {
 public:
  static bool On() { return flag_.load(std::memory_order_relaxed); }
  static void Set(bool on) { flag_.store(on, std::memory_order_relaxed); }

 private:
  static inline std::atomic<bool> flag_{false};
};

/// One thread's private counters of one plane. Written only by its owning
/// thread; read (and zeroed) by Registry under its lock, which callers must
/// only do while the writing threads are quiescent (e.g. at a window
/// barrier) — the executor's own synchronization then orders the accesses.
template <typename Counter, std::size_t N>
struct ThreadBlock {
  std::array<Counter, N> counters{};
};

/// Owns every thread's block of one plane for the lifetime of the process
/// (blocks of finished threads are retained so their counts stay in the
/// aggregate). Leaked singleton: probes must stay valid during static
/// destruction. `Counter` supplies `Merge(const Counter&)`, the plane's
/// cross-thread fold.
template <typename Counter, std::size_t N>
class Registry {
 public:
  using Block = ThreadBlock<Counter, N>;
  using Counters = std::array<Counter, N>;

  static Registry& Instance() {
    static Registry* instance = new Registry;  // intentionally leaked
    return *instance;
  }

  /// The calling thread's block, created and adopted on first use.
  static Block& Local() {
    thread_local Block* block = Instance().Attach();
    return *block;
  }

  /// Every thread's counters folded together. Call only while instrumented
  /// threads are quiescent (see ThreadBlock).
  Counters Aggregate() const {
    Counters total{};
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& block : blocks_) {
      for (std::size_t i = 0; i < N; ++i) total[i].Merge(block->counters[i]);
    }
    return total;
  }

  /// The scenario reset hook: zeroes every thread's block so successive
  /// scenarios in one process start from a clean slate instead of
  /// inheriting the previous run's counts. Same quiescence requirement as
  /// Aggregate().
  void ResetAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& block : blocks_) block->counters.fill(Counter{});
  }

 private:
  Registry() = default;

  Block* Attach() {
    auto block = std::make_unique<Block>();
    Block* raw = block.get();
    std::lock_guard<std::mutex> lock(mutex_);
    blocks_.push_back(std::move(block));
    return raw;
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Block>> blocks_;
};

}  // namespace viator::telemetry::plane
