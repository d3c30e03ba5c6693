// Free-list pool of Shuttle shells.
//
// Shuttles are value types that travel by move (through Frame payloads and
// ship handlers), so there is no stable node to thread a pointer chain
// through; what an allocator-style pool would recycle — and what actually
// costs on the hot path — is the heap capacity behind the three variable
// sections (code_image, payload, genome). The pool therefore keeps a stack
// of cleared shells whose vectors retain their capacity: a hot loop that
// acquires, fills, injects and (on consumption) releases reaches a steady
// state with zero allocations per shuttle.
//
// Pooling is invisible to simulation semantics: Release() resets every
// field to its default, so an acquired shell is indistinguishable from a
// freshly constructed Shuttle. Each pool instance is single-threaded (one
// per WanderingNetwork; shard workers own their networks), so there is no
// cross-thread sharing to synchronize.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/shuttle.h"
#include "telemetry/mem_counters.h"

namespace viator::wli {

class ShuttlePool {
 public:
  /// Cap on retained shells; releases beyond it simply destroy the shuttle
  /// (bounds memory under bursty traffic).
  static constexpr std::size_t kMaxPooled = 1024;

  /// A default-constructed shuttle, reusing a released shell's buffer
  /// capacity when one is available.
  Shuttle Acquire() {
    ++acquired_;
    if (free_.empty()) return Shuttle{};
    ++reused_;
    Shuttle s = std::move(free_.back());
    free_.pop_back();
    const std::size_t bytes = ShellBytes(s);
    retained_bytes_ -= bytes;
    VIATOR_MEM_FREE(kShuttlePool, bytes);
    return s;
  }

  /// Pool-backed equivalent of Shuttle::Data: the payload words are copied
  /// into the shell's retained vector, so steady-state sends do not touch
  /// the allocator at all (Shuttle::Data's by-value vector always does).
  Shuttle AcquireData(net::NodeId src, net::NodeId dst,
                      std::span<const std::int64_t> payload,
                      std::uint64_t flow = 0) {
    Shuttle s = Acquire();
    s.header.source = src;
    s.header.destination = dst;
    s.header.flow_id = flow;
    s.header.kind = ShuttleKind::kData;
    s.payload.assign(payload.begin(), payload.end());
    return s;
  }

  /// Returns a dead shuttle's shell. Every field is reset to its default;
  /// only the vectors' capacity survives.
  void Release(Shuttle&& s) {
    ++released_;
    if (free_.size() >= kMaxPooled) return;  // s destructs, memory returned
    s.header = ShuttleHeader{};
    s.code_digest = 0;
    s.code_image.clear();
    s.payload.clear();
    s.genome.clear();
    s.replication_budget = 0;
    s.auth_tag = 0;
    s.transit_destination = net::kInvalidNode;
    s.trace = telemetry::TraceContext{};
    s.lat_id = 0;
    const std::size_t bytes = ShellBytes(s);
    retained_bytes_ += bytes;
    if (retained_bytes_ > peak_retained_bytes_) {
      peak_retained_bytes_ = retained_bytes_;
    }
    VIATOR_MEM_ALLOC(kShuttlePool, bytes);
    free_.push_back(std::move(s));
  }

  std::size_t pooled() const { return free_.size(); }
  std::uint64_t acquired() const { return acquired_; }
  std::uint64_t reused() const { return reused_; }
  std::uint64_t released() const { return released_; }

  /// Heap bytes currently parked behind pooled shells (the three variable
  /// sections' capacities), and the high-water mark of that figure. Both
  /// are deterministic functions of the traffic, so benches pin them and
  /// genesis snapshots carry the peak across restore.
  std::size_t retained_bytes() const { return retained_bytes_; }
  std::size_t peak_retained_bytes() const { return peak_retained_bytes_; }

  /// Genesis restore hook: a freshly restored pool is empty (live bytes 0)
  /// but must remember the recorded run's high-water mark so capacity
  /// reports stay bit-identical across snapshot→restore.
  void RestorePeakRetainedBytes(std::size_t peak) {
    peak_retained_bytes_ = peak;
  }

 private:
  /// Heap capacity behind one shell's variable sections — exactly what a
  /// pooled shell keeps alive while parked on the free list.
  static std::size_t ShellBytes(const Shuttle& s) {
    return s.code_image.capacity() * sizeof(std::byte) +
           s.payload.capacity() * sizeof(std::int64_t) +
           s.genome.capacity() * sizeof(std::byte);
  }

  std::vector<Shuttle> free_;
  std::uint64_t acquired_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t released_ = 0;
  std::size_t retained_bytes_ = 0;
  std::size_t peak_retained_bytes_ = 0;
};

}  // namespace viator::wli
