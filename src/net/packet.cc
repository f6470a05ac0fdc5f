#include "src/net/packet.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "src/net/packet_arena.h"
#include "src/util/assert.h"
#include "src/util/buffer_pool.h"

namespace msn {

Packet::Stats Packet::stats_;

void Packet::ReleaseLast(PacketStorage* s) {
  if (s->arena != nullptr) {
    s->arena->Recycle(s);
    return;
  }
  if (s->pool != nullptr) {
    s->pool->Release(std::move(s->bytes));
  }
  delete s;
}

Packet::Packet(std::vector<uint8_t> bytes) {
  len_ = bytes.size();
  auto* storage = new PacketStorage;
  storage->bytes = std::move(bytes);
  storage->refs = 1;
  storage_ = storage;
  ++stats_.allocations;
}

Packet::Packet(std::initializer_list<uint8_t> bytes)
    : Packet(std::vector<uint8_t>(bytes)) {}

Packet Packet::Allocate(size_t size, size_t headroom) {
  PacketStorage* storage = DefaultPacketArena().Acquire(headroom + size);
  ++stats_.allocations;
  return Packet(storage, headroom, size);
}

Packet Packet::Copy(std::span<const uint8_t> bytes, size_t headroom) {
  Packet p = Allocate(bytes.size(), headroom);
  if (!bytes.empty()) {
    std::memcpy(p.storage_->bytes.data() + p.offset_, bytes.data(), bytes.size());
  }
  ++stats_.copies;
  return p;
}

long Packet::storage_use_count() const {
  return storage_ != nullptr ? static_cast<long>(storage_->refs) : 0;
}

Packet Packet::Slice(size_t pos, size_t count) const {
  MSN_ASSERT(pos <= len_ && count <= len_ - pos)
      << "slice [" << pos << ", +" << count << ") out of packet of " << len_ << " bytes";
  if (storage_ != nullptr) {
    ++storage_->refs;
  }
  return Packet(storage_, offset_ + pos, count);
}

std::vector<uint8_t> Packet::ToVector() const {
  return std::vector<uint8_t>(begin(), end());
}

uint8_t* Packet::MutableData() {
  if (storage_ == nullptr) {
    return nullptr;
  }
  if (storage_->refs > 1) {
    Isolate(offset_, /*shared=*/true);
  }
  return storage_->bytes.data() + offset_;
}

void Packet::Prepend(std::span<const uint8_t> bytes) {
  if (bytes.empty()) {
    return;
  }
  const bool unique = storage_ != nullptr && storage_->refs == 1;
  if (!unique || offset_ < bytes.size()) {
    Isolate(bytes.size() + kDefaultHeadroom, storage_ != nullptr && !unique);
  }
  offset_ -= bytes.size();
  len_ += bytes.size();
  std::memcpy(storage_->bytes.data() + offset_, bytes.data(), bytes.size());
}

void Packet::StripFront(size_t n) {
  MSN_ASSERT(n <= len_) << "StripFront(" << n << ") on packet of " << len_ << " bytes";
  offset_ += n;
  len_ -= n;
}

void Packet::TrimTo(size_t n) {
  MSN_ASSERT(n <= len_) << "TrimTo(" << n << ") on packet of " << len_ << " bytes";
  len_ = n;
}

void Packet::Isolate(size_t headroom, bool shared) {
  PacketStorage* storage = DefaultPacketArena().Acquire(headroom + len_);
  ++stats_.allocations;
  if (len_ > 0) {
    std::memcpy(storage->bytes.data() + headroom, data(), len_);
  }
  ++stats_.copies;
  if (shared) {
    ++stats_.cow_breaks;
  }
  Unref();
  storage_ = storage;
  offset_ = headroom;
}

std::string Packet::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "Packet(%zuB, hr=%zu, refs=%ld)", len_, offset_,
                storage_use_count());
  return buf;
}

}  // namespace msn
