#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/util/assert.h"

namespace msn {

uint32_t EventQueue::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slots_opened_ == slot_capacity_) {
    const uint32_t block_slots = blocks_.empty() ? kFirstBlockSlots : slot_capacity_;
    blocks_.push_back(std::make_unique<Slot[]>(block_slots));
    slot_capacity_ += block_slots;
  }
  return slots_opened_++;
}

EventId EventQueue::Push(Time when, uint64_t seq, uint32_t slot) {
  MSN_ASSERT(seq < next_seq_) << "sequence number " << seq << " was never reserved";
  const uint32_t gen = SlotAt(slot).gen;
  heap_.push_back(Item{when, seq, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), After{});
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
  if (slot >= slots_opened_ || SlotAt(slot).gen != gen) {
    return false;  // Already fired or running, already cancelled, or never existed.
  }
  Slot& s = SlotAt(slot);
  ++s.gen;
  s.cb.Reset();
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
  std::erase_if(heap_, [this](const Item& item) { return SlotAt(item.slot).gen != item.gen; });
  std::make_heap(heap_.begin(), heap_.end(), After{});
}

void EventQueue::PopHeapItem() {
  std::pop_heap(heap_.begin(), heap_.end(), After{});
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

bool EventQueue::RunNext(Time deadline, Time& now) {
  DropCancelledHead();
  if (heap_.empty() || heap_.front().when > deadline) {
    return false;
  }
  const uint32_t slot = heap_.front().slot;
  now = heap_.front().when;
  Slot& s = SlotAt(slot);
  ++s.gen;
  --live_count_;
  PopHeapItem();
  PurgeIfMostlyCancelled();
  s.cb();
  s.cb.Reset();
  free_slots_.push_back(slot);
  return true;
}

}  // namespace msn
