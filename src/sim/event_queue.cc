#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"

namespace msn {

EventId EventQueue::ScheduleReserved(Time when, uint64_t seq, Callback cb) {
  MSN_ASSERT(seq < next_seq_) << "sequence number " << seq << " was never reserved";
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const uint32_t gen = slots_[slot].gen;
  slots_[slot].cb = std::move(cb);
  heap_.push_back(Item{when, seq, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), After);
  ++lane_stats_.heap_scheduled;
  ++live_count_;
  return EventId((static_cast<uint64_t>(gen) << 32) | (slot + 1));
}

bool EventQueue::Cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const uint32_t slot = static_cast<uint32_t>(id.handle_ & 0xffffffff) - 1;
  const uint32_t gen = static_cast<uint32_t>(id.handle_ >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return false;  // Already fired, already cancelled, or never existed.
  }
  ++slots_[slot].gen;
  slots_[slot].cb.Reset();
  free_slots_.push_back(slot);
  --live_count_;
  PurgeIfMostlyCancelled();
  return true;
}

void EventQueue::PurgeIfMostlyCancelled() {
  if (heap_.size() - live_count_ <= live_count_) {
    return;
  }
  // (when, seq) is a strict total order, so rebuilding the heap from the live
  // items cannot change which one pops next.
  std::erase_if(heap_, [this](const Item& item) { return slots_[item.slot].gen != item.gen; });
  std::make_heap(heap_.begin(), heap_.end(), After);
}

void EventQueue::PopHeapItem() {
  std::pop_heap(heap_.begin(), heap_.end(), After);
  heap_.pop_back();
}

void EventQueue::DropCancelledHead() {
  while (!heap_.empty() && TopIsTombstone()) {
    PopHeapItem();
  }
}

Time EventQueue::NextTime() const {
  // Tombstone at the top can hide a later live event; peel lazily. Logically
  // const: live events and their order are unchanged.
  const_cast<EventQueue*>(this)->DropCancelledHead();
  return heap_.empty() ? Time::Max() : heap_.front().when;
}

EventQueue::Entry EventQueue::PopNext() {
  DropCancelledHead();
  MSN_ASSERT(!heap_.empty()) << "PopNext on an empty event queue";
  const uint32_t slot = heap_.front().slot;
  Entry entry{heap_.front().when, std::move(slots_[slot].cb)};
  ++slots_[slot].gen;
  free_slots_.push_back(slot);
  --live_count_;
  PopHeapItem();
  PurgeIfMostlyCancelled();
  return entry;
}

}  // namespace msn
