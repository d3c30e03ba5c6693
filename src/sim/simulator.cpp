#include "sim/simulator.h"

#include <utility>

#include "sim/stats.h"
#include "telemetry/mem_counters.h"
#include "telemetry/perf_counters.h"

namespace viator::sim {

std::uint32_t Simulator::AllocSlot(Callback fn) {
  std::uint32_t slot;
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].fn = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    // Structural accounting: the slot array's capacity growth (callback
    // captures beyond std::function's inline buffer are the caller's).
    const std::size_t before = slots_.capacity();
    slots_.push_back(EventSlot{std::move(fn), 0, 0});
    if (slots_.capacity() != before) {
      VIATOR_MEM_ALLOC(kCalendarQueue,
                       (slots_.capacity() - before) * sizeof(EventSlot));
    }
  }
  ++live_events_;
  return slot;
}

void Simulator::FreeSlot(std::uint32_t slot, Callback* fn) {
  EventSlot& s = slots_[slot];
  if (fn != nullptr) {
    *fn = std::move(s.fn);
  }
  s.fn = nullptr;  // release captured state now, not at reuse
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_events_;
}

EventHandle Simulator::ScheduleAt(TimePoint when, Callback fn) {
  if (when < now_) {
    ++clamped_events_;
    if (clamp_counter_ != nullptr) clamp_counter_->Add();
  }
  QueuedEvent qe;
  qe.when = when < now_ ? now_ : when;
  qe.seq = next_seq_++;
  qe.slot = AllocSlot(std::move(fn));
  qe.gen = slots_[qe.slot].gen;
  queue_.Push(qe);
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
  return EventHandle(this, qe.slot, qe.gen);
}

EventHandle Simulator::ScheduleAfter(Duration delay, Callback fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Step() {
  VIATOR_PERF_SCOPE(kSimDispatch);
  while (!queue_.empty()) {
    QueuedEvent ev = queue_.PopMin();
    if (!SlotLive(ev.slot, ev.gen)) continue;  // tombstoned by Cancel()
    now_ = ev.when;
    // Free the slot before running: a handle queried (or cancelled) from
    // inside its own callback must read "already fired", exactly as the old
    // *alive = false did. The callback is moved out first.
    Callback fn;
    FreeSlot(ev.slot, &fn);
    ++dispatched_;
    if (dispatch_hook_ != nullptr) {
      dispatch_hook_(dispatch_hook_ctx_, ev.when, dispatched_);
    }
    fn();
    return true;
  }
  return false;
}

std::uint64_t Simulator::RunUntil(TimePoint deadline) {
  std::uint64_t n = 0;
  while (!queue_.empty()) {
    // Deliberately checks the raw queue minimum, tombstones included — the
    // binary-heap scheduler did the same, and replay baselines depend on the
    // exact event set a window dispatches.
    if (queue_.PeekMin()->when > deadline) break;
    if (Step()) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Simulator::RunAll() {
  std::uint64_t n = 0;
  while (Step()) ++n;
  return n;
}

std::optional<TimePoint> Simulator::NextEventTime() {
  while (!queue_.empty()) {
    const QueuedEvent* top = queue_.PeekMin();
    if (SlotLive(top->slot, top->gen)) return top->when;
    // Tombstoned: drop it now, exactly as Step() would.
    (void)queue_.PopMin();
  }
  return std::nullopt;
}

void Simulator::BindClampCounter(Counter* counter) {
  clamp_counter_ = counter;
  if (clamp_counter_ != nullptr && clamped_events_ > clamp_counter_->value()) {
    clamp_counter_->Add(clamped_events_ - clamp_counter_->value());
  }
}

Status Simulator::RestoreClock(TimePoint now, std::uint64_t dispatched_count,
                               std::uint64_t schedule_ordinal) {
  if (PendingEvents() != 0) {
    return FailedPrecondition("cannot restore clock with events pending");
  }
  if (now < now_) {
    return InvalidArgument("cannot restore clock backwards");
  }
  if (schedule_ordinal < next_seq_) {
    return InvalidArgument("cannot restore schedule ordinal backwards");
  }
  next_seq_ = schedule_ordinal;
  now_ = now;
  dispatched_ = dispatched_count;
  return OkStatus();
}

}  // namespace viator::sim
