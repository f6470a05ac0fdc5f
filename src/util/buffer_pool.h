// Block-size policy for packet byte buffers.
//
// Every frame that crosses a link needs one contiguous wire-image buffer.
// Requests up to one block get a vector with the block's full capacity, so
// the packet arena (src/net/packet_arena.h) can recycle it for any later
// block-sized packet; larger requests get an exact-size oversize vector.
// The arena is the only recycler; the pool only counts what it hands out and
// takes back. The simulation core is single-threaded by design (see
// DESIGN.md), so there is no locking.
//
// Layering: util must not depend on telemetry, so the pool exposes a raw
// stats snapshot that perfbench reads directly.
#ifndef MSN_SRC_UTIL_BUFFER_POOL_H_
#define MSN_SRC_UTIL_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace msn {

class BufferPool {
 public:
  // Default block covers an Ethernet MTU frame (1500 B payload + link and
  // tunnel headers) with headroom to spare; larger requests bypass the pool.
  static constexpr size_t kDefaultBlockBytes = 2048;

  struct Stats {
    uint64_t hits = 0;         // Always 0: no free list; kept for perfbench.
    uint64_t misses = 0;       // Acquire that allocated a block-capacity buffer.
    uint64_t oversize = 0;     // Acquire larger than a block.
    uint64_t released = 0;     // Buffers handed back via Release.
    uint64_t outstanding = 0;  // Acquired buffers not yet released.
  };

  explicit BufferPool(size_t block_bytes = kDefaultBlockBytes) : block_bytes_(block_bytes) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns a value-initialized buffer of exactly `size` bytes. Requests at
  // most block_bytes() carry block_bytes() of capacity.
  [[nodiscard]] std::vector<uint8_t> Acquire(size_t size);

  // Counts a buffer's return and frees it.
  void Release(std::vector<uint8_t>&& buf);

  size_t block_bytes() const { return block_bytes_; }
  const Stats& stats() const { return stats_; }

 private:
  const size_t block_bytes_;
  Stats stats_;
};

// The process-wide pool packet storage draws from. A function-local static so
// any static-lifetime Packet is safe regardless of construction order.
BufferPool& DefaultBufferPool();

}  // namespace msn

#endif  // MSN_SRC_UTIL_BUFFER_POOL_H_
