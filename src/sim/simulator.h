// Discrete-event simulation kernel.
//
// A Simulator owns a calendar queue of (time, ordinal) event references and
// a virtual clock. Events at equal times fire in scheduling order: the
// tie-break key is a *stable schedule ordinal* — a monotone counter assigned
// at ScheduleAt time that genesis snapshots save and RestoreClock restores —
// never an insertion pointer or other accident of memory layout. That makes
// every run bit-for-bit deterministic, keeps same-time dispatch order
// identical across a checkpoint/restore boundary, and gives merged
// shard-boundary injections (src/shard) a well-defined total order against
// events the restored or destination simulator scheduled itself.
//
// Callbacks live in an intrusive free-list slot pool; the queue holds only
// 24-byte {when, seq, slot, gen} references (sim/calendar_queue.h), so the
// hot dispatch path allocates nothing. Cancellation is O(1): freeing the
// slot bumps its generation, which tombstones every queued reference to it
// (stale gen), removed lazily at pop time — the same semantics the previous
// shared_ptr<bool> token provided, without the per-event allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/status.h"
#include "sim/calendar_queue.h"
#include "sim/time.h"

namespace viator::sim {

class Counter;  // sim/stats.h

/// Handle to a scheduled event; Cancel() prevents a not-yet-fired callback
/// from running. Handles are cheap value copies (pool slot + generation) and
/// may outlive the event itself (cancelling a fired event is a no-op) — but
/// not the Simulator that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  /// Suppresses the callback if it has not fired yet.
  void Cancel();

  /// True if the event is still pending (scheduled, not fired/cancelled).
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(class Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The event-driven virtual machine of the whole system: all network, node
/// and WLI activity is expressed as events against one Simulator.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (clamped to now if in the past).
  EventHandle ScheduleAt(TimePoint when, Callback fn);

  /// Schedules `fn` after `delay` from now.
  EventHandle ScheduleAfter(Duration delay, Callback fn);

  /// Flight-recorder hook: called for every dispatched event with its
  /// scheduled time and 1-based dispatch ordinal (`dispatched()` after the
  /// increment — restored by RestoreClock, so journals stay comparable
  /// across a genesis restore, unlike the scheduling sequence number),
  /// before the callback runs. A plain function pointer keeps the unhooked
  /// dispatch path to one predicted branch.
  using DispatchHook = void (*)(void* ctx, TimePoint when,
                                std::uint64_t ordinal);
  void SetDispatchHook(DispatchHook hook, void* ctx) {
    dispatch_hook_ = hook;
    dispatch_hook_ctx_ = ctx;
  }

  /// Runs events until the queue empties or the clock passes `deadline`.
  /// Returns the number of events dispatched.
  std::uint64_t RunUntil(TimePoint deadline);

  /// Runs until the queue is fully drained.
  std::uint64_t RunAll();

  /// Dispatches exactly one event if any is pending. Returns false when idle.
  bool Step();

  /// Scheduled time of the next live (non-cancelled) event, or nullopt when
  /// the queue holds none. Tombstoned entries encountered on the way are
  /// removed (the same lazy cleanup Step() performs), which is why this is
  /// not const. Lets replay seek stop exactly before a virtual-time bound.
  std::optional<TimePoint> NextEventTime();

  /// Number of live (non-cancelled) events still queued. O(1): the slot pool
  /// tracks live occupancy directly.
  std::size_t PendingEvents() const { return live_events_; }

  /// Current event-queue size, O(1). Counts tombstoned (cancelled) events
  /// still awaiting lazy removal, so this is queue *occupancy*, the number
  /// PendingEvents() refines.
  std::size_t queue_depth() const { return queue_.size(); }

  /// High-water mark of queue_depth() since construction.
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  /// Total events dispatched since construction.
  std::uint64_t dispatched() const { return dispatched_; }

  /// Events whose requested time lay in the past and were silently clamped to
  /// now() by ScheduleAt. A growing value usually means a scheduler bug in a
  /// service (negative delays, stale deadlines), so it is worth watching.
  std::uint64_t clamped_events() const { return clamped_events_; }

  /// Mirrors the clamp count into an externally owned counter (typically
  /// `stats.GetCounter("sim.clamped_events")` of the owning network) so it
  /// shows up in metric exports. Pass nullptr to unbind. Clamps recorded
  /// before binding are folded into the counter at bind time.
  void BindClampCounter(Counter* counter);

  /// Next schedule ordinal to be assigned — the stable same-time tie-break
  /// key. Saved by genesis snapshots so that events scheduled after a
  /// restore tie-break exactly as they would have in the uninterrupted run.
  std::uint64_t schedule_ordinal() const { return next_seq_; }

  /// Restores the virtual clock to `now` with a given dispatch count and
  /// schedule ordinal (snapshot restore). Only legal on an idle simulator:
  /// fails with kFailedPrecondition when events are still queued, and with
  /// kInvalidArgument when `now` would move the clock backwards or
  /// `schedule_ordinal` would move the tie-break counter backwards.
  Status RestoreClock(TimePoint now, std::uint64_t dispatched_count,
                      std::uint64_t schedule_ordinal);

  /// Snapshot fields (the genesis clock section): virtual time, dispatch
  /// count and schedule ordinal. Loads go through RestoreClock's checks.
  template <class A>
  void Visit(A& a) {
    TimePoint now = now_;
    std::uint64_t dispatched = dispatched_;
    std::uint64_t ordinal = next_seq_;
    a.U64(0x01, now);
    a.U64(0x02, dispatched);
    a.U64(0x03, ordinal);
    if constexpr (A::kLoading) {
      if (a.ok()) a.Check(RestoreClock(now, dispatched, ordinal));
    }
  }

  /// Memory-observatory accessors (docs/MEMORY.md): current and peak heap
  /// bytes behind the calendar queue, plus the slot pool's footprint
  /// (capacity, O(1)). Deterministic — benches pin them, genesis carries
  /// the queue peak across restore (see RestoreQueuePeakHeapBytes).
  std::size_t queue_heap_bytes() const { return queue_.heap_bytes(); }
  std::size_t queue_peak_heap_bytes() const {
    return queue_.peak_heap_bytes();
  }
  std::size_t slot_pool_bytes() const {
    return slots_.capacity() * sizeof(EventSlot);
  }

  /// Genesis restore hook: re-seeds the recorded run's calendar-queue
  /// high-water mark (restore rebuilds the queue storage from scratch, so
  /// the peak would otherwise reset to whatever restore re-created).
  void RestoreQueuePeakHeapBytes(std::size_t peak) {
    queue_.RestorePeakHeapBytes(peak);
  }

 private:
  friend class EventHandle;

  // Pooled event storage. A slot's generation bumps every time it is freed
  // (fire or cancel), so queued references and handles carrying an old
  // generation read as dead — ABA-safe without per-event allocation.
  struct EventSlot {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = 0;
  };

  std::uint32_t AllocSlot(Callback fn);
  // Destroys the slot's callback, bumps its generation and returns it to the
  // free list. `fn` (if non-null) receives the callback instead, moved out
  // before the slot is reusable — the dispatch path's move-out.
  void FreeSlot(std::uint32_t slot, Callback* fn = nullptr);
  bool SlotLive(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t clamped_events_ = 0;
  std::size_t max_queue_depth_ = 0;
  std::size_t live_events_ = 0;
  CalendarQueue queue_;
  std::vector<EventSlot> slots_;
  std::uint32_t free_head_ = kNoFreeSlot;
  static constexpr std::uint32_t kNoFreeSlot = ~static_cast<std::uint32_t>(0);
  DispatchHook dispatch_hook_ = nullptr;
  void* dispatch_hook_ctx_ = nullptr;
  Counter* clamp_counter_ = nullptr;
};

inline void EventHandle::Cancel() {
  if (sim_ != nullptr && sim_->SlotLive(slot_, gen_)) sim_->FreeSlot(slot_);
}

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->SlotLive(slot_, gen_);
}

}  // namespace viator::sim
