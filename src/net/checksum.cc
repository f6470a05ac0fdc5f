#include "src/net/checksum.h"

#include <array>
#include <bit>
#include <cstring>

namespace msn {

namespace {

// End-around-carry fold of a wide one's-complement sum to 16 bits. Because
// 2^16 == 1 (mod 0xffff), the folded value is congruent to the input, and it
// is zero only when the input is.
uint16_t FoldTo16(uint64_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(sum);
}

uint16_t ByteSwap16(uint16_t v) { return static_cast<uint16_t>((v >> 8) | (v << 8)); }

}  // namespace

void InternetChecksum::Add(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  if (odd_) {
    sum_ += (static_cast<uint16_t>(pending_) << 8) | data[0];
    odd_ = false;
    ++data;
    --len;
  }
  // RFC 1071 §2(B)/§4: sum native-order 32-bit words into a 64-bit
  // accumulator (2^32 words before it could overflow), fold, and swap the
  // bytes once on a little-endian host. The folded native sum is the
  // byte-swapped big-endian word sum, so `sum_` gets exactly what summing
  // one big-endian 16-bit word at a time would have given, mod 0xffff, and
  // is zero exactly when every byte is.
  uint64_t acc = 0;
  for (; len >= 4; data += 4, len -= 4) {
    uint32_t word;
    std::memcpy(&word, data, 4);
    acc += word;
  }
  if (len >= 2) {
    uint16_t half;
    std::memcpy(&half, data, 2);
    acc += half;
    data += 2;
    len -= 2;
  }
  const uint16_t folded = FoldTo16(acc);
  sum_ += std::endian::native == std::endian::little ? ByteSwap16(folded) : folded;
  if (len == 1) {
    pending_ = data[0];
    odd_ = true;
  }
}

void InternetChecksum::AddU16(uint16_t v) {
  // With an odd byte pending, the word straddles it: its high byte pairs
  // with the pending byte and its low byte becomes the pending one, which
  // sums to the same as keeping the pending byte and adding `v` swapped.
  sum_ += odd_ ? ByteSwap16(v) : v;
}

void InternetChecksum::AddU32(uint32_t v) {
  AddU16(static_cast<uint16_t>(v >> 16));
  AddU16(static_cast<uint16_t>(v & 0xffff));
}

uint16_t InternetChecksum::Fold() const {
  uint64_t sum = sum_;
  if (odd_) {
    sum += static_cast<uint16_t>(pending_) << 8;
  }
  return static_cast<uint16_t>(~FoldTo16(sum) & 0xffff);
}

uint16_t ComputeInternetChecksum(const uint8_t* data, size_t len) {
  InternetChecksum cs;
  cs.Add(data, len);
  return cs.Fold();
}

uint16_t ComputeInternetChecksum(const std::vector<uint8_t>& data) {
  return ComputeInternetChecksum(data.data(), data.size());
}

uint16_t ComputeIpv4HeaderChecksum(const uint8_t* header) {
  // The third word holds TTL, protocol and the checksum; the mask keeps the
  // first two bytes in memory order, so it holds in either byte order.
  constexpr uint32_t kMaskChecksum =
      std::bit_cast<uint32_t>(std::array<uint8_t, 4>{0xff, 0xff, 0x00, 0x00});
  uint32_t w[5];
  std::memcpy(w, header, sizeof(w));
  const uint64_t acc = uint64_t{w[0]} + w[1] + (w[2] & kMaskChecksum) + w[3] + w[4];
  // As in InternetChecksum::Add: the folded native sum is the byte-swapped
  // big-endian word sum.
  const uint16_t folded = FoldTo16(acc);
  const uint16_t sum = std::endian::native == std::endian::little ? ByteSwap16(folded) : folded;
  return static_cast<uint16_t>(~sum & 0xffff);
}

bool VerifyInternetChecksum(const uint8_t* data, size_t len) {
  return ComputeInternetChecksum(data, len) == 0;
}

uint16_t IncrementalChecksumUpdate(uint16_t old_checksum, uint16_t old_word, uint16_t new_word) {
  // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m'), computed in one's complement.
  uint32_t sum = static_cast<uint16_t>(~old_checksum);
  sum += static_cast<uint16_t>(~old_word);
  sum += new_word;
  return static_cast<uint16_t>(~FoldTo16(sum) & 0xffff);
}

}  // namespace msn
