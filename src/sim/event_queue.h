// Priority queue of timed events with stable FIFO ordering for equal
// timestamps and O(1) generation-checked cancellation.
//
// Callbacks are move-only, small-buffer-optimized UniqueFunctions stored
// inline in a flat slot arena indexed by the heap items — no side hash map,
// and no per-event heap allocation for callbacks that fit the inline buffer.
// The heap items themselves stay 24-byte PODs so the O(log n) sift moves
// never touch callback storage (keeping the callback inside the heap item
// measured ~3x slower on the event microbench). Cancellation bumps the
// event's slot generation and destroys the callback immediately; the
// orphaned heap item is skipped lazily when it reaches the top.
//
// Ordering contract (relied on for bit-for-bit deterministic seeded runs):
// events pop in (time, schedule order). The sequence number that breaks ties
// is assigned in Schedule call order, exactly as in the original
// priority_queue + unordered_map implementation, so pop order is identical.
// Every event goes through the one heap, including one scheduled for the
// timestamp currently being drained: its sequence number is larger than
// that of every pending event at that time, so it fires after them with no
// special case (DESIGN.md §18).
#ifndef MSN_SRC_SIM_EVENT_QUEUE_H_
#define MSN_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"
#include "src/util/function.h"

namespace msn {

// Opaque handle identifying a scheduled event. Default-constructed handles
// are invalid and cancelling them is a no-op.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return handle_ != 0; }

 private:
  friend class EventQueue;
  explicit EventId(uint64_t handle) : handle_(handle) {}
  // (generation << 32) | (slot + 1); 0 is the invalid handle.
  uint64_t handle_ = 0;
};

class EventQueue {
 public:
  using Callback = UniqueFunction;

  // Enqueues `cb` to fire at `when`. Events scheduled for the same time fire
  // in insertion order.
  EventId Schedule(Time when, Callback cb);

  // Cancels a pending event. Returns true if the event was still pending.
  // The callback is destroyed now; its heap item is skipped when it surfaces.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  // Time of the earliest pending event; Time::Max() when empty.
  Time NextTime() const;

  // Removes and returns the earliest pending event. Requires !empty().
  struct Entry {
    Time when;
    Callback cb;
  };
  Entry PopNext();

  // Schedule count since construction, read by perfbench/msn_perfbench.cc.
  struct LaneStats {
    uint64_t lane_scheduled = 0;  // Always 0: no lane; kept for perfbench.
    uint64_t heap_scheduled = 0;  // Every Schedule call.
  };
  const LaneStats& lane_stats() const { return lane_stats_; }

 private:
  struct Item {
    Time when;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };

  struct Slot {
    uint32_t gen = 0;
    Callback cb;
  };

  // Min-heap comparator: true when `a` fires after `b`.
  static bool After(const Item& a, const Item& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  // True when the item at the top of the heap was cancelled.
  bool TopIsTombstone() const {
    return slots_[heap_.front().slot].gen != heap_.front().gen;
  }
  void DropCancelledHead();
  void PopHeapItem();

  std::vector<Item> heap_;
  LaneStats lane_stats_;
  // Callback arena. A generation mismatch between a Slot and an Item marks
  // that item cancelled. Slots return to the free list as soon as the
  // generation is bumped (Cancel or pop) — stale heap items can never match
  // the reissued slot because their generation is behind.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
};

}  // namespace msn

#endif  // MSN_SRC_SIM_EVENT_QUEUE_H_
