// EventQueue — a deterministic discrete-event scheduler over a VirtualClock.
//
// The lossy-wire transports used to interleave retransmit timers, server
// processing, and link delays through a lockstep Send/PumpServer loop; an
// event queue makes that interleaving explicit and reproducible. Each event
// is a (deadline_nanos, seq, callback) triple ordered by deadline with a
// FIFO tie-break on seq, so two events due at the same instant always run
// in the order they were scheduled — the property that makes every trace
// counter of an event-driven run two-run identical.
//
// RunNext advances the clock *to* the popped event's deadline before
// invoking it. The clock never moves backwards: an event whose deadline is
// already in the past (because a model charged the clock inline after the
// event was scheduled) simply runs at the current time. Callbacks may
// schedule and cancel further events, including re-entrantly.
//
// Storage is a slab: callbacks live in a slot vector recycled through a
// free list, and an EventId names a slot plus the slot's generation, so a
// stale id (its event ran or was cancelled, and the slot now holds another
// event) never matches. Callbacks are EventCallbacks, which hold captures
// up to kInlineSize bytes in place, so the steady-state schedule/run cycle
// performs no heap allocation.

#ifndef FLEXRPC_SRC_SUPPORT_EVENT_QUEUE_H_
#define FLEXRPC_SRC_SUPPORT_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/timing.h"

namespace flexrpc {

// A move-only `void()` callable with small-buffer storage. Callables of at
// most kInlineSize bytes (nothrow-movable, aligned no stricter than a
// pointer) are stored in place; others fall back to one heap allocation.
// The capacity fits the call engine's largest event capture: a reply-send
// lambda (this + reply vector) wrapped in ScheduleInScope's scope tags.
class EventCallback {
 public:
  static constexpr size_t kInlineSize = 48;
  static constexpr size_t kInlineAlign = alignof(void*);

  EventCallback() = default;

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventCallback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { Take(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      Take(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(storage_); }

  // Destroys the held callable, leaving the callback empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr bool kStoredInline =
      sizeof(Fn) <= kInlineSize &&
      alignof(Fn) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(static_cast<Fn*>(s)))(); },
      [](void* dst, void* src) {
        Fn* from = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) { std::launder(static_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* s) { delete *static_cast<Fn**>(s); },
  };

  void Take(EventCallback& other) {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  // Slot generation in the high word, slot index + 1 in the low word, so
  // no live id is ever kInvalidEvent.
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  // `clock` must outlive the queue; every event's deadline is read against
  // and applied to it.
  explicit EventQueue(VirtualClock* clock) : clock_(clock) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run once the clock reaches `deadline_nanos`. Events
  // with equal deadlines run in scheduling order (FIFO tie-break).
  EventId ScheduleAt(uint64_t deadline_nanos, EventCallback fn);

  // Schedules `fn` to run `delay_nanos` after the clock's current time.
  EventId ScheduleAfter(uint64_t delay_nanos, EventCallback fn);

  // Cancels a pending event in O(1). Returns false when the event already
  // ran, was cancelled before, or never existed — including when its slot
  // has since been reused by another event, which stays scheduled.
  bool Cancel(EventId id);

  // Runs the earliest pending event, advancing the clock to its deadline
  // first (never backwards). Returns false when no event is pending.
  bool RunNext();

  // Runs events until none remain, or until `max_events` have been
  // dispatched (0 = unbounded). Returns the number dispatched.
  size_t RunUntilIdle(size_t max_events = 0);

  size_t pending() const { return live_; }
  bool empty() const { return live_ == 0; }
  VirtualClock* clock() { return clock_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    EventCallback fn;           // empty while the slot is free
    uint32_t generation = 0;    // bumped every time the slot is released
    uint32_t next_free = kNoSlot;
  };
  struct HeapEntry {
    uint64_t deadline_nanos;
    uint64_t seq;  // monotonically increasing: the FIFO tie-break
    uint32_t slot;
    uint32_t generation;  // stale (cancelled) when the slot's has moved on
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.deadline_nanos != b.deadline_nanos
                 ? a.deadline_nanos > b.deadline_nanos
                 : a.seq > b.seq;
    }
  };

  // Destroys the slot's callback, retires its generation, and returns it
  // to the free list.
  void Release(uint32_t slot);

  VirtualClock* clock_;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> heap_;
  // Cancelled events free their slot at once; their heap entries stay
  // behind and are skipped when popped (the generation no longer matches).
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_EVENT_QUEUE_H_
