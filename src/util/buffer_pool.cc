#include "src/util/buffer_pool.h"

namespace msn {

std::vector<uint8_t> BufferPool::Acquire(size_t size) {
  ++stats_.outstanding;
  if (size > block_bytes_) {
    ++stats_.oversize;
    return std::vector<uint8_t>(size);
  }
  ++stats_.misses;
  std::vector<uint8_t> buf;
  buf.reserve(block_bytes_);
  buf.resize(size);
  return buf;
}

void BufferPool::Release(std::vector<uint8_t>&& buf) {
  ++stats_.released;
  if (stats_.outstanding > 0) {
    --stats_.outstanding;
  }
  std::vector<uint8_t>().swap(buf);
}

BufferPool& DefaultBufferPool() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

}  // namespace msn
