#include "src/support/event_queue.h"

#include <utility>

namespace flexrpc {

EventQueue::EventId EventQueue::ScheduleAt(uint64_t deadline_nanos,
                                           EventCallback fn) {
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  ++live_;
  heap_.push(HeapEntry{deadline_nanos, next_seq_++, slot, s.generation});
  return (static_cast<uint64_t>(s.generation) << 32) | (slot + 1ull);
}

EventQueue::EventId EventQueue::ScheduleAfter(uint64_t delay_nanos,
                                              EventCallback fn) {
  return ScheduleAt(clock_->now_nanos() + delay_nanos, std::move(fn));
}

void EventQueue::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.Reset();
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

bool EventQueue::Cancel(EventId id) {
  uint64_t index = (id & 0xFFFFFFFFull) - 1;  // kInvalidEvent wraps out
  if (index >= slots_.size()) {
    return false;
  }
  const Slot& s = slots_[index];
  if (!s.fn || s.generation != static_cast<uint32_t>(id >> 32)) {
    return false;  // already ran, cancelled, or the slot was reused
  }
  // The heap entry stays behind and is skipped when popped.
  Release(static_cast<uint32_t>(index));
  return true;
}

bool EventQueue::RunNext() {
  while (!heap_.empty()) {
    HeapEntry top = heap_.top();
    heap_.pop();
    Slot& s = slots_[top.slot];
    if (s.generation != top.generation) {
      continue;  // cancelled: tombstone left in the heap
    }
    // Detach before running: the callback may schedule (growing slots_)
    // and cancel freely.
    EventCallback fn = std::move(s.fn);
    Release(top.slot);
    if (top.deadline_nanos > clock_->now_nanos()) {
      clock_->AdvanceNanos(top.deadline_nanos - clock_->now_nanos());
    }
    fn();
    return true;
  }
  return false;
}

size_t EventQueue::RunUntilIdle(size_t max_events) {
  size_t ran = 0;
  while ((max_events == 0 || ran < max_events) && RunNext()) {
    ++ran;
  }
  return ran;
}

}  // namespace flexrpc
