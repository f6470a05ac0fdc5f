// Packet: a ref-counted, copy-on-write view of a wire image.
//
// A packet's bytes live in one shared Storage block (drawn from the
// BufferPool) and every Packet is an (offset, length) window onto it.
// Copying a Packet bumps a refcount; the bytes are copied only when a writer
// actually mutates shared storage (COW) or prepends past the available
// headroom. This is what makes the forwarding datapath zero-copy:
//
//   - a broadcast medium hands every receiver the same immutable buffer;
//   - IPIP decap is StripFront(20) — the inner datagram is a slice;
//   - IPIP encap serializes the outer header into reserved headroom;
//   - the per-hop TTL/checksum rewrite edits 3 bytes in place (unique
//     storage) or copies once (shared storage), never re-serializes.
//
// Mutation is only reachable through MutableData()/Prepend(), so a plain
// `const Packet&` can be passed around freely: readers can alias, writers
// pay for isolation. Single-threaded by design, like the rest of the core.
//
// Storage is an intrusively ref-counted PacketStorage node recycled through
// the PacketArena (src/net/packet_arena.h), the only buffer recycler: no
// shared_ptr control block, no atomics, and no per-packet BufferPool traffic
// — the pool only sizes the buffers of new nodes when the arena refills.
//
// Accounting: every deep byte copy made by this class is counted in
// Stats::copies (with the shared-storage subset in Stats::cow_breaks); the
// bench regression gate watches copies-per-hop on the forwarding path.
#ifndef MSN_SRC_NET_PACKET_H_
#define MSN_SRC_NET_PACKET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/net/packet_arena.h"

namespace msn {

class Packet {
 public:
  // Reserved in front of pool-built packets so one level of IPIP encap (20 B
  // outer header) prepends without copying; a second level usually still
  // fits thanks to the stripped inner headroom left behind by decap.
  static constexpr size_t kDefaultHeadroom = 40;

  struct Stats {
    uint64_t copies = 0;      // Deep byte copies of packet storage.
    uint64_t cow_breaks = 0;  // Subset of copies forced by shared storage.
    uint64_t allocations = 0;  // Storage blocks created (pool or heap).
  };

  Packet() = default;

  // Manual refcount discipline over the intrusive storage node. Inline: a
  // Packet handle is copied, moved and dropped on every hop and in every
  // event capture that carries one.
  Packet(const Packet& other)
      : storage_(other.storage_), offset_(other.offset_), len_(other.len_) {
    if (storage_ != nullptr) {
      ++storage_->refs;
    }
  }
  Packet& operator=(const Packet& other) {
    if (this != &other) {
      if (other.storage_ != nullptr) {
        ++other.storage_->refs;
      }
      Unref();
      storage_ = other.storage_;
      offset_ = other.offset_;
      len_ = other.len_;
    }
    return *this;
  }
  Packet(Packet&& other) noexcept
      : storage_(std::exchange(other.storage_, nullptr)),
        offset_(std::exchange(other.offset_, 0)),
        len_(std::exchange(other.len_, 0)) {}
  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      Unref();
      storage_ = std::exchange(other.storage_, nullptr);
      offset_ = std::exchange(other.offset_, 0);
      len_ = std::exchange(other.len_, 0);
    }
    return *this;
  }
  ~Packet() { Unref(); }

  // Adopts an existing vector as storage — zero-copy. Implicit so existing
  // `frame.payload = Serialize()` producer sites keep working.
  Packet(std::vector<uint8_t> bytes);  // NOLINT(google-explicit-constructor)
  Packet(std::initializer_list<uint8_t> bytes);

  // Pool-backed uninitialized packet of `size` bytes with `headroom` bytes
  // reserved in front for later Prepend calls. Fill via MutableData().
  [[nodiscard]] static Packet Allocate(size_t size, size_t headroom = kDefaultHeadroom);

  // Pool-backed deep copy of external bytes (counted in Stats::copies).
  [[nodiscard]] static Packet Copy(std::span<const uint8_t> bytes,
                                   size_t headroom = kDefaultHeadroom);

  // --- Read side (never copies) ---------------------------------------------

  const uint8_t* data() const { return Base() + offset_; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + len_; }
  std::span<const uint8_t> span() const { return {data(), len_}; }

  // A zero-copy sub-view sharing this packet's storage.
  [[nodiscard]] Packet Slice(size_t pos, size_t count) const;

  // Copies the visible bytes out into a standalone vector.
  [[nodiscard]] std::vector<uint8_t> ToVector() const;

  bool SharesStorageWith(const Packet& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }
  // Bytes available in front of the view for zero-copy Prepend.
  size_t headroom() const { return offset_; }

  // --- Write side (isolates storage first when shared) ----------------------

  // Mutable pointer to the visible bytes. Breaks COW if storage is shared.
  uint8_t* MutableData();

  // Grows the view backward by `bytes.size()`, writing `bytes` in front of
  // the current first byte. Zero-copy when storage is unique and headroom
  // suffices; otherwise relocates into a fresh pool block.
  void Prepend(std::span<const uint8_t> bytes);

  // Shrinks the view in place: drop `n` front bytes / keep first `n` bytes.
  // Both are O(1) and never touch storage (decap, de-padding).
  void StripFront(size_t n);
  void TrimTo(size_t n);

  // --- Introspection --------------------------------------------------------

  static const Stats& stats() { return stats_; }
  static void ResetStatsForTest() { stats_ = Stats{}; }
  long storage_use_count() const;

  std::string ToString() const;  // "Packet(20+1480B, hr=40, refs=2)"

  friend bool operator==(const Packet& a, const Packet& b) {
    return a.span().size() == b.span().size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  // Adopts `storage` along with the reference the caller already holds (no
  // refcount bump).
  Packet(PacketStorage* storage, size_t offset, size_t len)
      : storage_(storage), offset_(offset), len_(len) {}

  const uint8_t* Base() const { return storage_ != nullptr ? storage_->bytes.data() : nullptr; }
  // Drops this packet's reference, recycling the node when it was the last.
  void Unref() {
    PacketStorage* s = storage_;
    storage_ = nullptr;
    if (s != nullptr && --s->refs == 0) {
      ReleaseLast(s);
    }
  }
  // Recycles (arena node) or frees (heap node) storage whose last reference
  // just went.
  static void ReleaseLast(PacketStorage* s);
  // Replaces storage_ with a unique arena-backed copy of the visible bytes,
  // keeping kDefaultHeadroom in front. `shared` routes the copy to the right
  // stats bucket.
  void Isolate(size_t headroom, bool shared);

  static Stats stats_;

  PacketStorage* storage_ = nullptr;
  size_t offset_ = 0;
  size_t len_ = 0;
};

}  // namespace msn

#endif  // MSN_SRC_NET_PACKET_H_
