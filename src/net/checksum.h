// The Internet checksum (RFC 1071): 16-bit one's-complement sum of
// one's-complement 16-bit words.
#ifndef MSN_SRC_NET_CHECKSUM_H_
#define MSN_SRC_NET_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace msn {

// Accumulates the checksum over several byte ranges (e.g. pseudo-header then
// payload). Fold() produces the final complemented 16-bit checksum. Add sums
// 32 bits at a time; the result is exactly that of summing big-endian 16-bit
// words, including an odd byte carried across calls (DESIGN.md §12).
class InternetChecksum {
 public:
  void Add(const uint8_t* data, size_t len);
  void Add(const std::vector<uint8_t>& data) { Add(data.data(), data.size()); }
  void AddU16(uint16_t v);
  void AddU32(uint32_t v);

  // Final checksum value (already complemented, ready to write to the wire).
  [[nodiscard]] uint16_t Fold() const;

 private:
  uint64_t sum_ = 0;
  bool odd_ = false;  // True if an odd byte is pending pairing.
  uint8_t pending_ = 0;
};

// One-shot checksum over a single buffer.
[[nodiscard]] uint16_t ComputeInternetChecksum(const uint8_t* data, size_t len);
[[nodiscard]] uint16_t ComputeInternetChecksum(const std::vector<uint8_t>& data);

// The header checksum of the 20-byte option-free IPv4 header at `header`,
// whatever its checksum field (bytes 10-11) holds: one fixed-width sum of
// five words with that half-word masked out. Equal to
// ComputeInternetChecksum over the header with the field zeroed.
[[nodiscard]] uint16_t ComputeIpv4HeaderChecksum(const uint8_t* header);

// Verifies a buffer whose checksum field is included: the folded sum over the
// whole buffer must be zero.
[[nodiscard]] bool VerifyInternetChecksum(const uint8_t* data, size_t len);

// RFC 1624 incremental update: the checksum of a buffer after one 16-bit
// word changes from `old_word` to `new_word`, without re-summing the buffer.
// This is how a router updates the header checksum for a TTL decrement;
// equivalence with a full recompute is pinned down in tests/net_test.cc.
[[nodiscard]] uint16_t IncrementalChecksumUpdate(uint16_t old_checksum, uint16_t old_word,
                                                 uint16_t new_word);

}  // namespace msn

#endif  // MSN_SRC_NET_CHECKSUM_H_
