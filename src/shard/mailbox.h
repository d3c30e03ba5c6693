// Cross-shard handoff mailboxes.
//
// During a window, shard worker threads deposit outbound cross-shard
// shuttles into per-destination-shard mailboxes (one mutex stripe per
// destination, so senders to different shards never contend). At the window
// barrier the single-threaded merge drains every mailbox and sorts the
// handoffs by (arrival_time, source_shard, sequence) — a total order that
// does not depend on which worker appended first, which is what makes the
// merged injection order (and therefore the whole run) bit-identical for
// any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/shuttle.h"
#include "net/types.h"
#include "shard/plan.h"
#include "sim/time.h"
#include "telemetry/mem_counters.h"
#include "telemetry/perf_counters.h"

namespace viator::shard {

/// One cross-shard shuttle in flight between windows.
struct Handoff {
  /// Virtual arrival time at the entry gateway (send time + link latency,
  /// clamped into the next window when a zero-latency cross link would have
  /// landed it inside the current one).
  sim::TimePoint arrival_time = 0;
  /// Shard whose gateway emitted the handoff.
  ShardId source_shard = kInvalidShard;
  /// Per-source-shard emission ordinal (each shard runs single-threaded
  /// within a window, so this needs no atomics and is deterministic).
  std::uint64_t sequence = 0;
  /// Global node id of the entry gateway in the destination shard.
  net::NodeId entry_node = net::kInvalidNode;
  /// The capsule itself; header/transit re-addressed by the merge.
  wli::Shuttle shuttle;
  /// Latency-plane continuity (telemetry/latency_plane.h): the flight's
  /// birth time carried across the shard boundary, so the destination
  /// shard's lane can resume the end-to-end delivery clock. 0 = flight not
  /// tracked. Deliberately excluded from the handoff hash: pure
  /// observability, derived from deterministic sim time.
  sim::TimePoint lat_birth = 0;

  /// The deterministic merge order.
  bool operator<(const Handoff& other) const {
    if (arrival_time != other.arrival_time) {
      return arrival_time < other.arrival_time;
    }
    if (source_shard != other.source_shard) {
      return source_shard < other.source_shard;
    }
    return sequence < other.sequence;
  }
};

class MailboxGrid {
 public:
  explicit MailboxGrid(std::size_t shard_count)
      : stripes_(shard_count), total_handoffs_(0) {}

  MailboxGrid(const MailboxGrid&) = delete;
  MailboxGrid& operator=(const MailboxGrid&) = delete;

  ~MailboxGrid() {
    for (const Stripe& stripe : stripes_) {
      VIATOR_MEM_FREE(kMailbox,
                      stripe.pending.capacity() * sizeof(Handoff));
    }
  }

  /// Deposits a handoff bound for `destination_shard`. Thread-safe; called
  /// from shard workers mid-window.
  void Push(ShardId destination_shard, Handoff handoff) {
    // The timed scope covers the stripe lock acquire + deposit, so cycle
    // counts surface stripe contention directly.
    VIATOR_PERF_SCOPE(kMailboxPush);
    Stripe& stripe = stripes_[destination_shard];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    // Capacity growth lands on the pushing thread's counter block — the
    // aggregate stays exact; retained stripe capacity is never released
    // until the grid dies, mirroring the actual allocator behaviour.
    const std::size_t before = stripe.pending.capacity();
    stripe.pending.push_back(std::move(handoff));
    if (stripe.pending.capacity() != before) {
      VIATOR_MEM_ALLOC(kMailbox, (stripe.pending.capacity() - before) *
                                     sizeof(Handoff));
    }
  }

  /// Drains every mailbox into one deterministically sorted batch (barrier
  /// only — assumes no concurrent Push).
  std::vector<Handoff> DrainSorted();

  /// Handoffs drained since construction.
  std::uint64_t total_handoffs() const { return total_handoffs_; }

  /// True when every stripe is empty (quiescence check; barrier only).
  bool Empty() const;

  /// Heap bytes retained by stripe backing stores (barrier only — assumes
  /// no concurrent Push; folded into the per-window memory snapshot).
  std::size_t RetainedBytes() const {
    std::size_t bytes = 0;
    for (const Stripe& stripe : stripes_) {
      bytes += stripe.pending.capacity() * sizeof(Handoff);
    }
    return bytes;
  }

  std::size_t shard_count() const { return stripes_.size(); }

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::vector<Handoff> pending;
  };
  std::vector<Stripe> stripes_;
  std::uint64_t total_handoffs_;
};

}  // namespace viator::shard
