// Arena recycler for packet storage nodes (DESIGN.md §18), and the only
// recycler of packet buffers.
//
// Packet storage is an intrusively ref-counted PacketStorage node
// (single-threaded core: a plain uint32 refcount, no atomics, no shared_ptr
// control block), and the arena keeps dead nodes — header and block-capacity
// byte vector together — on a free list. Steady-state per-packet allocation
// cost is a pointer pop on acquire and a pointer push on release; the
// BufferPool (src/util/buffer_pool.h) only sizes the buffers of new nodes,
// one Acquire per node when a slab refill runs.
//
// Oversize storage (beyond the pool block) and adopted producer vectors
// bypass the arena: they are heap-built, heap-freed, never recycled.
#ifndef MSN_SRC_NET_PACKET_ARENA_H_
#define MSN_SRC_NET_PACKET_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/buffer_pool.h"

namespace msn {

class PacketArena;

// One block of wire bytes plus its intrusive refcount. Reachable only
// through Packet (which owns the ref discipline) and PacketArena (which
// recycles dead nodes).
struct PacketStorage {
  std::vector<uint8_t> bytes;
  // Where the byte vector returns when the node dies outside the arena
  // (oversize blocks); null for adopted producer vectors.
  BufferPool* pool = nullptr;
  // Recycler for this node; null = heap node, deleted on last unref.
  PacketArena* arena = nullptr;
  uint32_t refs = 0;
};

class PacketArena {
 public:
  // Nodes built per refill, amortized over a burst of packet allocations.
  static constexpr size_t kSlabNodes = 64;

  struct Stats {
    uint64_t node_allocs = 0;  // PacketStorage nodes heap-allocated.
    uint64_t recycled = 0;     // Acquires served from the free list.
    uint64_t refills = 0;      // Slab refills.
    uint64_t drains = 0;       // Trim calls that released idle nodes.
    size_t free_nodes = 0;     // Nodes idle on the free list now.
  };

  explicit PacketArena(BufferPool& pool) : pool_(pool) {}
  ~PacketArena();

  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  // Returns a node with refs == 1 and `size` visible bytes (stale contents;
  // callers overwrite). Oversize requests come back as non-recyclable heap
  // nodes drawing straight from the pool's oversize path.
  [[nodiscard]] PacketStorage* Acquire(size_t size);

  // Takes back a node whose refcount reached zero. Arena-block nodes return
  // to the free list; anything else is freed here.
  void Recycle(PacketStorage* node);

  const Stats& stats() const { return stats_; }
  BufferPool& pool() { return pool_; }

  // Returns every idle node's buffer to the pool and frees the node (tests;
  // bounding peak memory between phases).
  void Trim();

 private:
  void Refill();

  BufferPool& pool_;
  std::vector<PacketStorage*> free_;
  Stats stats_;
};

// The process-wide arena packet storage draws from, layered over
// DefaultBufferPool(). Function-local static: safe for static-lifetime
// Packets regardless of construction order.
PacketArena& DefaultPacketArena();

}  // namespace msn

#endif  // MSN_SRC_NET_PACKET_ARENA_H_
