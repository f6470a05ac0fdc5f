#include "src/net/packet_arena.h"

#include <utility>

namespace msn {
namespace {

// Free-list cap: the arena keeps at most this many idle nodes (32 MiB of
// buffers at the default block size). Sized so a burst of ~10k in-flight
// packets — the scale of the datapath benches — recycles entirely; memory is
// only ever held after such a burst actually happened.
constexpr size_t kMaxFreeNodes = 16384;

}  // namespace

PacketArena::~PacketArena() { Trim(); }

void PacketArena::Refill() {
  ++stats_.refills;
  free_.reserve(free_.size() + kSlabNodes);
  for (size_t i = 0; i < kSlabNodes; ++i) {
    auto* node = new PacketStorage;
    node->bytes = pool_.Acquire(pool_.block_bytes());
    node->pool = &pool_;
    node->arena = this;
    ++stats_.node_allocs;
    free_.push_back(node);
  }
  stats_.free_nodes = free_.size();
}

PacketStorage* PacketArena::Acquire(size_t size) {
  if (size > pool_.block_bytes()) {
    auto* node = new PacketStorage;
    node->bytes = pool_.Acquire(size);  // Oversize path: plain allocation.
    node->pool = &pool_;
    node->refs = 1;
    ++stats_.node_allocs;
    return node;
  }
  if (free_.empty()) {
    Refill();
  }
  PacketStorage* node = free_.back();
  free_.pop_back();
  stats_.free_nodes = free_.size();
  node->bytes.resize(size);
  node->refs = 1;
  ++stats_.recycled;
  return node;
}

void PacketArena::Recycle(PacketStorage* node) {
  if (node->bytes.capacity() != pool_.block_bytes() || free_.size() >= kMaxFreeNodes) {
    pool_.Release(std::move(node->bytes));
    delete node;
    return;
  }
  free_.push_back(node);
  stats_.free_nodes = free_.size();
}

void PacketArena::Trim() {
  if (free_.empty()) {
    return;
  }
  ++stats_.drains;
  for (PacketStorage* node : free_) {
    pool_.Release(std::move(node->bytes));
    delete node;
  }
  free_.clear();
  free_.shrink_to_fit();
  stats_.free_nodes = 0;
}

PacketArena& DefaultPacketArena() {
  static PacketArena* arena = new PacketArena(DefaultBufferPool());
  return *arena;
}

}  // namespace msn
