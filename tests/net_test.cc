// Unit tests for src/net: addresses, checksums, and wire formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/net/address.h"
#include "src/net/checksum.h"
#include "src/net/frame.h"
#include "src/net/headers.h"
#include "src/util/rng.h"

namespace msn {
namespace {

// --- Ipv4Address -----------------------------------------------------------------

TEST(AddressTest, ParseAndToString) {
  auto addr = Ipv4Address::Parse("36.135.0.10");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->ToString(), "36.135.0.10");
  EXPECT_EQ(addr->value(), (36u << 24) | (135u << 16) | 10u);
}

TEST(AddressTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("1.2.3.4x").has_value());
}

TEST(AddressTest, Predicates) {
  EXPECT_TRUE(Ipv4Address::Any().IsAny());
  EXPECT_TRUE(Ipv4Address::Broadcast().IsBroadcast());
  EXPECT_TRUE(Ipv4Address::Loopback().IsLoopback());
  EXPECT_TRUE(Ipv4Address(224, 0, 0, 1).IsMulticast());
  EXPECT_FALSE(Ipv4Address(36, 8, 0, 1).IsMulticast());
}

// --- Subnet ---------------------------------------------------------------------------

TEST(SubnetTest, ContainsAndBroadcast) {
  const Subnet net = Subnet::MustParse("36.135.0.0/16");
  EXPECT_TRUE(net.Contains(Ipv4Address(36, 135, 0, 10)));
  EXPECT_TRUE(net.Contains(Ipv4Address(36, 135, 255, 254)));
  EXPECT_FALSE(net.Contains(Ipv4Address(36, 134, 0, 10)));
  EXPECT_EQ(net.BroadcastAddress(), Ipv4Address(36, 135, 255, 255));
  EXPECT_EQ(net.HostAt(10), Ipv4Address(36, 135, 0, 10));
}

TEST(SubnetTest, BaseIsMasked) {
  const Subnet net(Ipv4Address(10, 1, 2, 3), SubnetMask(8));
  EXPECT_EQ(net.base(), Ipv4Address(10, 0, 0, 0));
  EXPECT_EQ(net.ToString(), "10.0.0.0/8");
}

TEST(SubnetTest, DefaultRouteContainsEverything) {
  const Subnet def = Subnet::Default();
  EXPECT_TRUE(def.Contains(Ipv4Address(1, 2, 3, 4)));
  EXPECT_TRUE(def.Contains(Ipv4Address::Broadcast()));
  EXPECT_EQ(def.prefix_len(), 0);
}

TEST(SubnetTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Subnet::Parse("36.135.0.0").has_value());
  EXPECT_FALSE(Subnet::Parse("36.135.0.0/33").has_value());
  EXPECT_FALSE(Subnet::Parse("36.135.0.0/-1").has_value());
  EXPECT_FALSE(Subnet::Parse("x/16").has_value());
  EXPECT_FALSE(Subnet::Parse("36.135.0.0/16extra").has_value());
}

TEST(SubnetMaskTest, MaskValues) {
  EXPECT_EQ(SubnetMask(0).mask_value(), 0u);
  EXPECT_EQ(SubnetMask(8).mask_value(), 0xff000000u);
  EXPECT_EQ(SubnetMask(16).mask_value(), 0xffff0000u);
  EXPECT_EQ(SubnetMask(32).mask_value(), 0xffffffffu);
  EXPECT_EQ(SubnetMask(16).ToString(), "255.255.0.0");
}

// --- MacAddress --------------------------------------------------------------------------

TEST(MacAddressTest, FromIdAndToString) {
  const MacAddress mac = MacAddress::FromId(0x2a);
  EXPECT_EQ(mac.ToString(), "02:00:00:00:00:2a");
  EXPECT_FALSE(mac.IsBroadcast());
  EXPECT_FALSE(mac.IsZero());
  EXPECT_TRUE(MacAddress::Broadcast().IsBroadcast());
  EXPECT_TRUE(MacAddress::Zero().IsZero());
}

TEST(MacAddressTest, Ordering) {
  EXPECT_LT(MacAddress::FromId(1), MacAddress::FromId(2));
  EXPECT_EQ(MacAddress::FromId(7), MacAddress::FromId(7));
}

// --- Internet checksum ---------------------------------------------------------------------

TEST(ChecksumTest, Rfc1071Example) {
  // Classic example from RFC 1071 §3.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(ComputeInternetChecksum(data, sizeof(data)), static_cast<uint16_t>(~0xddf2 & 0xffff));
}

TEST(ChecksumTest, VerifyRoundTrip) {
  std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6};
  const uint16_t sum = ComputeInternetChecksum(data);
  data.push_back(static_cast<uint8_t>(sum >> 8));
  data.push_back(static_cast<uint8_t>(sum & 0xff));
  EXPECT_TRUE(VerifyInternetChecksum(data.data(), data.size()));
  data[0] ^= 0x80;
  EXPECT_FALSE(VerifyInternetChecksum(data.data(), data.size()));
}

TEST(ChecksumTest, OddLengths) {
  const uint8_t data[] = {0xab};
  EXPECT_EQ(ComputeInternetChecksum(data, 1), static_cast<uint16_t>(~0xab00 & 0xffff));
}

TEST(ChecksumTest, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data;
  for (int i = 0; i < 101; ++i) {
    data.push_back(static_cast<uint8_t>(i * 7));
  }
  InternetChecksum inc;
  inc.Add(data.data(), 13);        // Odd split exercises byte pairing.
  inc.Add(data.data() + 13, 50);
  inc.Add(data.data() + 63, 38);
  EXPECT_EQ(inc.Fold(), ComputeInternetChecksum(data));
}

TEST(ChecksumTest, EmptyBufferIsAllOnes) {
  // An empty sum is 0; the transmitted complement is 0xffff.
  EXPECT_EQ(ComputeInternetChecksum(nullptr, 0), 0xffff);
}

TEST(ChecksumTest, OddLengthSplitAcrossAdds) {
  // An odd-length first chunk leaves a pending byte that must pair with the
  // first byte of the next chunk, exactly as if the stream were contiguous.
  const uint8_t data[] = {0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde};
  for (size_t split = 0; split <= sizeof(data); ++split) {
    InternetChecksum cs;
    cs.Add(data, split);
    cs.Add(data + split, sizeof(data) - split);
    EXPECT_EQ(cs.Fold(), ComputeInternetChecksum(data, sizeof(data))) << "split=" << split;
  }
}

TEST(ChecksumTest, CarryFoldingAtFFFF) {
  // Every 16-bit word is 0xffff: the one's-complement sum saturates at 0xffff
  // (negative zero), so the transmitted checksum is 0x0000 regardless of
  // length — the canonical carry-wraparound case.
  for (size_t words : {1u, 2u, 32u, 1000u}) {
    const std::vector<uint8_t> data(words * 2, 0xff);
    EXPECT_EQ(ComputeInternetChecksum(data), 0x0000) << "words=" << words;
  }
  // 0x8000 + 0x8000 + 0x0001 overflows 16 bits; the carry folds back in:
  // 0x10001 -> 0x0002, complement 0xfffd.
  const uint8_t carry[] = {0x80, 0x00, 0x80, 0x00, 0x00, 0x01};
  EXPECT_EQ(ComputeInternetChecksum(carry, sizeof(carry)), 0xfffd);
}

TEST(ChecksumTest, IncrementalUpdateMatchesFullRecompute) {
  // Change each word of a buffer to assorted new values; RFC 1624 must agree
  // with recomputing the sum from scratch every time.
  std::vector<uint8_t> data;
  for (int i = 0; i < 20; ++i) {
    data.push_back(static_cast<uint8_t>(i * 31 + 5));
  }
  const uint16_t original = ComputeInternetChecksum(data);
  for (size_t offset = 0; offset + 1 < data.size(); offset += 2) {
    for (uint16_t new_word : {uint16_t{0x0000}, uint16_t{0xffff}, uint16_t{0x0001},
                              uint16_t{0x8000}, uint16_t{0x1234}}) {
      const auto old_word =
          static_cast<uint16_t>((data[offset] << 8) | data[offset + 1]);
      std::vector<uint8_t> modified = data;
      modified[offset] = static_cast<uint8_t>(new_word >> 8);
      modified[offset + 1] = static_cast<uint8_t>(new_word & 0xff);
      EXPECT_EQ(IncrementalChecksumUpdate(original, old_word, new_word),
                ComputeInternetChecksum(modified))
          << "offset=" << offset << " new_word=" << new_word;
    }
  }
}

TEST(ChecksumTest, IncrementalUpdateHandlesTtlDecrement) {
  // The router use case: decrement the TTL byte inside the ttl|protocol word
  // of a real serialized header and patch the header checksum incrementally;
  // the result must still verify as a whole.
  Ipv4Header h;
  h.src = Ipv4Address(36, 135, 0, 10);
  h.dst = Ipv4Address(36, 8, 0, 50);
  h.total_length = Ipv4Header::kSize;
  for (uint8_t ttl : {uint8_t{64}, uint8_t{2}, uint8_t{255}}) {
    h.ttl = ttl;
    ByteWriter w;
    h.Serialize(w);
    std::vector<uint8_t> bytes = w.Take();
    const auto old_word = static_cast<uint16_t>((bytes[8] << 8) | bytes[9]);
    const auto old_checksum = static_cast<uint16_t>((bytes[10] << 8) | bytes[11]);
    const auto new_word = static_cast<uint16_t>(old_word - 0x0100);  // ttl - 1.
    bytes[8] = static_cast<uint8_t>(new_word >> 8);
    const uint16_t updated = IncrementalChecksumUpdate(old_checksum, old_word, new_word);
    bytes[10] = static_cast<uint8_t>(updated >> 8);
    bytes[11] = static_cast<uint8_t>(updated & 0xff);
    EXPECT_TRUE(VerifyInternetChecksum(bytes.data(), Ipv4Header::kSize)) << "ttl=" << int{ttl};
  }
}

TEST(ChecksumTest, AddU16U32MatchBytes) {
  InternetChecksum a;
  a.AddU16(0x1234);
  a.AddU32(0xdeadbeef);
  const uint8_t bytes[] = {0x12, 0x34, 0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(a.Fold(), ComputeInternetChecksum(bytes, sizeof(bytes)));

  // The same words after an odd byte straddle it.
  InternetChecksum b;
  const uint8_t lead[] = {0xab};
  b.Add(lead, 1);
  b.AddU16(0x1234);
  b.AddU32(0xdeadbeef);
  const uint8_t straddled[] = {0xab, 0x12, 0x34, 0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(b.Fold(), ComputeInternetChecksum(straddled, sizeof(straddled)));
}

// The byte-pair summation InternetChecksum used to run: one big-endian 16-bit
// word per step, an odd trailing byte carried into the next call. It lives
// here only, as the oracle the word-at-a-time implementation must match
// exactly.
class BytePairChecksum {
 public:
  void Add(const uint8_t* data, size_t len) {
    size_t i = 0;
    if (odd_ && len > 0) {
      sum_ += (static_cast<uint16_t>(pending_) << 8) | data[0];
      odd_ = false;
      i = 1;
    }
    for (; i + 1 < len; i += 2) {
      sum_ += (static_cast<uint16_t>(data[i]) << 8) | data[i + 1];
    }
    if (i < len) {
      pending_ = data[i];
      odd_ = true;
    }
  }
  void AddU16(uint16_t v) {
    const uint8_t b[2] = {static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v & 0xff)};
    Add(b, 2);
  }
  void AddU32(uint32_t v) {
    AddU16(static_cast<uint16_t>(v >> 16));
    AddU16(static_cast<uint16_t>(v & 0xffff));
  }
  uint16_t Fold() const {
    uint64_t sum = sum_;
    if (odd_) {
      sum += static_cast<uint16_t>(pending_) << 8;
    }
    while (sum >> 16) {
      sum = (sum & 0xffff) + (sum >> 16);
    }
    return static_cast<uint16_t>(~sum & 0xffff);
  }

 private:
  uint64_t sum_ = 0;
  bool odd_ = false;
  uint8_t pending_ = 0;
};

uint16_t BytePairOneShot(const uint8_t* data, size_t len) {
  BytePairChecksum cs;
  cs.Add(data, len);
  return cs.Fold();
}

TEST(ChecksumTest, MatchesBytePairReferenceOnRandomBuffers) {
  Rng rng(1071);
  std::vector<uint8_t> storage(2000 + 8);
  for (int trial = 0; trial < 4000; ++trial) {
    // Misaligned starts: the word loads must not assume alignment.
    const size_t start = rng.UniformInt(uint64_t{0}, uint64_t{7});
    const size_t len = rng.UniformInt(uint64_t{0}, uint64_t{2000});
    const uint64_t fill = rng.UniformInt(uint64_t{0}, uint64_t{3});
    for (size_t i = 0; i < len; ++i) {
      switch (fill) {
        case 0:
          storage[start + i] = 0x00;
          break;
        case 1:
          storage[start + i] = 0xff;
          break;
        default:
          storage[start + i] = static_cast<uint8_t>(rng.NextU64());
          break;
      }
    }
    const uint8_t* data = storage.data() + start;
    ASSERT_EQ(ComputeInternetChecksum(data, len), BytePairOneShot(data, len))
        << "trial " << trial << " len " << len << " start " << start;

    // The same bytes split into several Add calls at arbitrary (often odd)
    // offsets, with pseudo-header words interleaved between them.
    InternetChecksum cs;
    BytePairChecksum ref;
    size_t pos = 0;
    while (pos < len) {
      const uint64_t cap = rng.Bernoulli(0.5) ? 7 : 700;
      const size_t chunk = rng.UniformInt(uint64_t{0}, std::min<uint64_t>(cap, len - pos));
      cs.Add(data + pos, chunk);
      ref.Add(data + pos, chunk);
      pos += chunk;
      if (rng.Bernoulli(0.3)) {
        const auto v = static_cast<uint16_t>(rng.NextU64());
        cs.AddU16(v);
        ref.AddU16(v);
      }
      if (rng.Bernoulli(0.3)) {
        const auto v = static_cast<uint32_t>(rng.NextU64());
        cs.AddU32(v);
        ref.AddU32(v);
      }
    }
    ASSERT_EQ(cs.Fold(), ref.Fold()) << "trial " << trial << " len " << len;
  }
}

TEST(ChecksumTest, AllZeroAndAllOnesBuffersMatchReference) {
  // The edge values of one's-complement arithmetic: an all-zero buffer sums
  // to +0 (checksum 0xffff), an all-0xff buffer to -0 (checksum 0).
  for (const uint8_t byte : {uint8_t{0x00}, uint8_t{0xff}}) {
    std::vector<uint8_t> buf(2000 + 3, byte);
    for (size_t len = 0; len <= 2000; ++len) {
      for (size_t start = 0; start < 3; ++start) {
        const uint8_t* data = buf.data() + start;
        ASSERT_EQ(ComputeInternetChecksum(data, len), BytePairOneShot(data, len))
            << "byte " << int{byte} << " len " << len << " start " << start;
      }
    }
  }
  const std::vector<uint8_t> zeros(64, 0x00);
  EXPECT_EQ(ComputeInternetChecksum(zeros), 0xffff);
  const std::vector<uint8_t> ones(64, 0xff);
  EXPECT_EQ(ComputeInternetChecksum(ones), 0x0000);
}

// --- IPv4 header ------------------------------------------------------------------------------

TEST(Ipv4HeaderTest, FixedWidthChecksumMatchesGenericSumWithFieldZeroed) {
  // Random headers with a random checksum field: the fixed-width sum must
  // ignore the field, so it equals the generic sum over the field zeroed.
  Rng rng(791);
  for (int trial = 0; trial < 20000; ++trial) {
    uint8_t header[Ipv4Header::kSize];
    const uint64_t fill = rng.UniformInt(uint64_t{0}, uint64_t{3});
    for (uint8_t& byte : header) {
      byte = fill == 0 ? 0x00 : fill == 1 ? 0xff : static_cast<uint8_t>(rng.NextU64());
    }
    header[10] = static_cast<uint8_t>(rng.NextU64());
    header[11] = static_cast<uint8_t>(rng.NextU64());
    uint8_t zeroed[Ipv4Header::kSize];
    std::copy(std::begin(header), std::end(header), std::begin(zeroed));
    zeroed[10] = 0;
    zeroed[11] = 0;
    ASSERT_EQ(ComputeIpv4HeaderChecksum(header), ComputeInternetChecksum(zeroed, Ipv4Header::kSize))
        << "trial " << trial;
  }
}

TEST(Ipv4HeaderTest, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.tos = 0x10;
  h.total_length = 48;
  h.identification = 777;
  h.ttl = 31;
  h.protocol = IpProto::kUdp;
  h.src = Ipv4Address(36, 135, 0, 10);
  h.dst = Ipv4Address(36, 8, 0, 20);

  ByteWriter w;
  h.Serialize(w);
  ASSERT_EQ(w.size(), Ipv4Header::kSize);

  ByteReader r(w.data());
  auto parsed = Ipv4Header::Parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tos, 0x10);
  EXPECT_EQ(parsed->total_length, 48);
  EXPECT_EQ(parsed->identification, 777);
  EXPECT_EQ(parsed->ttl, 31);
  EXPECT_EQ(parsed->protocol, IpProto::kUdp);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
}

TEST(Ipv4HeaderTest, ParseRejectsCorruption) {
  Ipv4Header h;
  h.total_length = 20;
  ByteWriter w;
  h.Serialize(w);
  auto bytes = w.Take();
  // Flip a bit in the TTL: the checksum no longer verifies.
  bytes[8] ^= 0x01;
  ByteReader r(bytes);
  EXPECT_FALSE(Ipv4Header::Parse(r).has_value());
}

// Writes `h` with its checksum field forced to `checksum`.
std::vector<uint8_t> HeaderWithChecksum(const Ipv4Header& h, uint16_t checksum) {
  std::vector<uint8_t> bytes(Ipv4Header::kSize);
  h.SerializeTo(bytes.data());
  bytes[10] = static_cast<uint8_t>(checksum >> 8);
  bytes[11] = static_cast<uint8_t>(checksum);
  return bytes;
}

TEST(Ipv4HeaderTest, ParseComparesChecksumInsteadOfFoldingToZero) {
  // Find a header whose correct checksum is 0x0000. Its one's-complement
  // negative zero, 0xffff, makes the 20 bytes fold to zero just the same,
  // but no sender writes it: Parse compares with the recomputed value and
  // rejects it.
  Ipv4Header h;
  h.total_length = 20;
  h.src = Ipv4Address(36, 135, 0, 10);
  h.dst = Ipv4Address(36, 8, 0, 20);
  bool found = false;
  for (uint32_t id = 0; id <= 0xffff && !found; ++id) {
    h.identification = static_cast<uint16_t>(id);
    std::vector<uint8_t> bytes(Ipv4Header::kSize);
    h.SerializeTo(bytes.data());
    found = bytes[10] == 0 && bytes[11] == 0;
  }
  ASSERT_TRUE(found);

  const auto good = HeaderWithChecksum(h, 0x0000);
  ByteReader good_reader(good);
  const auto parsed = Ipv4Header::Parse(good_reader);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->identification, h.identification);

  const auto negative_zero = HeaderWithChecksum(h, 0xffff);
  EXPECT_TRUE(VerifyInternetChecksum(negative_zero.data(), negative_zero.size()));
  ByteReader bad_reader(negative_zero);
  EXPECT_FALSE(Ipv4Header::Parse(bad_reader).has_value());
}

TEST(Ipv4HeaderTest, ReservedFlagBitStillVerifies) {
  // The reserved flag bit is not a parsed field, but the checksum covers it
  // as sent.
  Ipv4Header h;
  h.total_length = 20;
  h.identification = 4242;
  std::vector<uint8_t> bytes(Ipv4Header::kSize);
  h.SerializeTo(bytes.data());
  bytes[6] |= 0x80;
  bytes[10] = 0;
  bytes[11] = 0;
  const uint16_t checksum = ComputeInternetChecksum(bytes.data(), bytes.size());
  bytes[10] = static_cast<uint8_t>(checksum >> 8);
  bytes[11] = static_cast<uint8_t>(checksum);
  ByteReader r(bytes);
  const auto parsed = Ipv4Header::Parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->identification, 4242);
  EXPECT_FALSE(parsed->dont_fragment);
  EXPECT_FALSE(parsed->more_fragments);
}

TEST(Ipv4HeaderTest, ParseRejectsTruncation) {
  std::vector<uint8_t> short_buf(10, 0);
  ByteReader r(short_buf);
  EXPECT_FALSE(Ipv4Header::Parse(r).has_value());
}

TEST(Ipv4HeaderTest, ParseRejectsWrongVersion) {
  Ipv4Header h;
  ByteWriter w;
  h.Serialize(w);
  auto bytes = w.Take();
  bytes[0] = 0x65;  // Version 6.
  ByteReader r(bytes);
  EXPECT_FALSE(Ipv4Header::Parse(r).has_value());
}

TEST(Ipv4DatagramTest, BuildAndParse) {
  Ipv4Header h;
  h.protocol = IpProto::kIcmp;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(5, 6, 7, 8);
  const std::vector<uint8_t> payload = {9, 9, 9};
  auto bytes = BuildIpv4Datagram(h, payload);
  EXPECT_EQ(bytes.size(), Ipv4Header::kSize + 3);

  auto dg = Ipv4Datagram::Parse(bytes);
  ASSERT_TRUE(dg.has_value());
  EXPECT_EQ(dg->header.total_length, 23);
  EXPECT_EQ(dg->payload, payload);
  // Reserialization is stable.
  EXPECT_EQ(dg->Serialize(), bytes);
}

TEST(Ipv4DatagramDeathTest, OversizedPayloadTripsLengthContract) {
  // 70000 bytes cannot be represented in the 16-bit total_length; before the
  // MSN_CHECK this silently truncated and produced a corrupt wire image.
  Ipv4Header h;
  h.src = Ipv4Address(1, 1, 1, 1);
  h.dst = Ipv4Address(2, 2, 2, 2);
  const std::vector<uint8_t> oversized(70000);
  EXPECT_DEATH((void)BuildIpv4Datagram(h, oversized), "truncate total_length");
}

TEST(UdpDeathTest, OversizedPayloadTripsLengthContract) {
  UdpDatagram dg;
  dg.src_port = 1000;
  dg.dst_port = 2000;
  dg.payload.resize(70000);
  EXPECT_DEATH((void)dg.Serialize(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2)),
               "truncate the length");
}

TEST(Ipv4DatagramTest, ParseRejectsShortTotalLength) {
  Ipv4Header h;
  auto bytes = BuildIpv4Datagram(h, std::vector<uint8_t>(10, 1));
  bytes.resize(25);  // Truncate below total_length.
  EXPECT_FALSE(Ipv4Datagram::Parse(bytes).has_value());
}

// --- UDP ----------------------------------------------------------------------------------------

TEST(UdpTest, RoundTripWithChecksum) {
  const Ipv4Address src(36, 135, 0, 10), dst(36, 8, 0, 20);
  UdpDatagram dg;
  dg.src_port = 1234;
  dg.dst_port = 434;
  dg.payload = {'h', 'e', 'l', 'l', 'o'};
  auto bytes = dg.Serialize(src, dst);
  EXPECT_EQ(bytes.size(), UdpDatagram::kHeaderSize + 5);

  auto parsed = UdpDatagram::Parse(bytes, src, dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 1234);
  EXPECT_EQ(parsed->dst_port, 434);
  EXPECT_EQ(parsed->payload, dg.payload);
}

TEST(UdpTest, ChecksumCoversAddresses) {
  const Ipv4Address src(1, 1, 1, 1), dst(2, 2, 2, 2);
  UdpDatagram dg;
  dg.src_port = 1;
  dg.dst_port = 2;
  auto bytes = dg.Serialize(src, dst);
  // Same bytes validated against different addresses must fail (this is what
  // catches mobility code sending with the wrong source address).
  EXPECT_TRUE(UdpDatagram::Parse(bytes, src, dst).has_value());
  EXPECT_FALSE(UdpDatagram::Parse(bytes, Ipv4Address(3, 3, 3, 3), dst).has_value());
}

TEST(UdpTest, CorruptPayloadRejected) {
  const Ipv4Address src(1, 1, 1, 1), dst(2, 2, 2, 2);
  UdpDatagram dg;
  dg.payload = {1, 2, 3, 4};
  auto bytes = dg.Serialize(src, dst);
  bytes.back() ^= 0xff;
  EXPECT_FALSE(UdpDatagram::Parse(bytes, src, dst).has_value());
}

TEST(UdpTest, EmptyPayload) {
  const Ipv4Address src(1, 1, 1, 1), dst(2, 2, 2, 2);
  UdpDatagram dg;
  auto parsed = UdpDatagram::Parse(dg.Serialize(src, dst), src, dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->payload.empty());
}

// The UDP layout UdpDatagram::Serialize wrote through a ByteWriter before
// the in-place builder, summed by the byte-pair oracle: the raw checksum
// (before the RFC 768 zero substitution) goes to `raw_checksum`.
std::vector<uint8_t> OracleUdpBytes(uint16_t src_port, uint16_t dst_port,
                                    const std::vector<uint8_t>& payload, Ipv4Address src_ip,
                                    Ipv4Address dst_ip, uint16_t* raw_checksum = nullptr) {
  const auto length = static_cast<uint16_t>(UdpDatagram::kHeaderSize + payload.size());
  ByteWriter w(length);
  w.WriteU16(src_port);
  w.WriteU16(dst_port);
  w.WriteU16(length);
  w.WriteU16(0);
  w.WriteBytes(payload);
  BytePairChecksum cs;
  cs.AddU32(src_ip.value());
  cs.AddU32(dst_ip.value());
  cs.AddU16(static_cast<uint16_t>(IpProto::kUdp));
  cs.AddU16(length);
  cs.Add(w.data().data(), w.size());
  const uint16_t checksum = cs.Fold();
  if (raw_checksum != nullptr) {
    *raw_checksum = checksum;
  }
  w.PatchU16(6, checksum == 0 ? 0xffff : checksum);
  return w.Take();
}

TEST(UdpTest, SerializeToMatchesByteWriterOracle) {
  Rng rng(768);
  std::vector<size_t> sizes = {0, 1, 2, 3, 4, 7, 1451, 1452, 1471, 1472};
  for (int i = 0; i < 400; ++i) {
    sizes.push_back(static_cast<size_t>(rng.UniformInt(uint64_t{0}, uint64_t{1472})));
  }
  constexpr uint8_t kGuard = 0xa5;
  for (const size_t size : sizes) {
    const auto src_port = static_cast<uint16_t>(rng.NextU64());
    const auto dst_port = static_cast<uint16_t>(rng.NextU64());
    const Ipv4Address src(static_cast<uint32_t>(rng.NextU64()));
    const Ipv4Address dst(static_cast<uint32_t>(rng.NextU64()));
    std::vector<uint8_t> payload(size);
    for (uint8_t& byte : payload) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    const auto expected = OracleUdpBytes(src_port, dst_port, payload, src, dst);

    // A guard byte on each side: the builder writes exactly 8 + n bytes.
    std::vector<uint8_t> out(expected.size() + 2, kGuard);
    UdpDatagram::SerializeTo(out.data() + 1, src_port, dst_port, payload, src, dst);
    ASSERT_EQ(out.front(), kGuard) << "size " << size;
    ASSERT_EQ(out.back(), kGuard) << "size " << size;
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), out.begin() + 1)) << "size " << size;

    UdpDatagram dg;
    dg.src_port = src_port;
    dg.dst_port = dst_port;
    dg.payload = payload;
    ASSERT_EQ(dg.Serialize(src, dst), expected) << "size " << size;

    const auto parsed = UdpDatagram::Parse(expected, src, dst);
    ASSERT_TRUE(parsed.has_value()) << "size " << size;
    EXPECT_EQ(parsed->src_port, src_port);
    EXPECT_EQ(parsed->dst_port, dst_port);
    EXPECT_EQ(parsed->payload, payload);
  }
}

TEST(UdpTest, ComputedZeroChecksumIsSentAsAllOnes) {
  // Search two-byte payloads for one whose checksum computes to 0.
  const Ipv4Address src(36, 135, 0, 10), dst(36, 8, 0, 20);
  std::vector<uint8_t> payload(2);
  bool found = false;
  for (uint32_t v = 0; v <= 0xffff && !found; ++v) {
    payload[0] = static_cast<uint8_t>(v >> 8);
    payload[1] = static_cast<uint8_t>(v);
    uint16_t raw = 1;
    (void)OracleUdpBytes(7, 7, payload, src, dst, &raw);
    found = raw == 0;
  }
  ASSERT_TRUE(found);
  std::vector<uint8_t> out(UdpDatagram::kHeaderSize + payload.size());
  UdpDatagram::SerializeTo(out.data(), 7, 7, payload, src, dst);
  EXPECT_EQ(out[6], 0xff);
  EXPECT_EQ(out[7], 0xff);
  EXPECT_EQ(out, OracleUdpBytes(7, 7, payload, src, dst));
  const auto parsed = UdpDatagram::Parse(out, src, dst);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload, payload);
}

// --- ICMP ----------------------------------------------------------------------------------------

TEST(IcmpTest, EchoRoundTrip) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoRequest;
  msg.rest = IcmpMessage::MakeEchoRest(42, 7);
  msg.payload = {'p', 'i', 'n', 'g'};
  auto bytes = msg.Serialize();

  auto parsed = IcmpMessage::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, IcmpType::kEchoRequest);
  EXPECT_EQ(parsed->echo_id(), 42);
  EXPECT_EQ(parsed->echo_seq(), 7);
  EXPECT_EQ(parsed->payload, msg.payload);
}

TEST(IcmpTest, CorruptionRejected) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoReply;
  auto bytes = msg.Serialize();
  bytes[4] ^= 1;
  EXPECT_FALSE(IcmpMessage::Parse(bytes).has_value());
}

TEST(IcmpTest, TruncationRejected) {
  const std::vector<uint8_t> bytes = {1, 2, 3};
  EXPECT_FALSE(IcmpMessage::Parse(bytes).has_value());
}

// --- ARP ----------------------------------------------------------------------------------------

TEST(ArpTest, RequestRoundTrip) {
  ArpMessage msg;
  msg.op = ArpOp::kRequest;
  msg.sender_mac = MacAddress::FromId(1);
  msg.sender_ip = Ipv4Address(36, 135, 0, 1);
  msg.target_ip = Ipv4Address(36, 135, 0, 10);
  auto bytes = msg.Serialize();
  EXPECT_EQ(bytes.size(), ArpMessage::kSize);

  auto parsed = ArpMessage::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, ArpOp::kRequest);
  EXPECT_EQ(parsed->sender_mac, msg.sender_mac);
  EXPECT_EQ(parsed->sender_ip, msg.sender_ip);
  EXPECT_EQ(parsed->target_ip, msg.target_ip);
  EXPECT_NE(parsed->ToString().find("who-has"), std::string::npos);
}

TEST(ArpTest, SerializeToWritesTheRfc826Images) {
  ArpMessage request;
  request.op = ArpOp::kRequest;
  request.sender_mac = MacAddress::FromId(0x2a);
  request.sender_ip = Ipv4Address(36, 135, 0, 1);
  request.target_mac = MacAddress::Zero();
  request.target_ip = Ipv4Address(36, 135, 0, 10);
  const uint8_t request_image[ArpMessage::kSize] = {
      0x00, 0x01, 0x08, 0x00, 0x06, 0x04, 0x00, 0x01,  // Ethernet, IPv4, lengths 6 and 4, request.
      0x02, 0x00, 0x00, 0x00, 0x00, 0x2a,              // Sender MAC.
      0x24, 0x87, 0x00, 0x01,                          // Sender IP 36.135.0.1.
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,              // Target MAC.
      0x24, 0x87, 0x00, 0x0a,                          // Target IP 36.135.0.10.
  };
  uint8_t out[ArpMessage::kSize + 1];
  out[ArpMessage::kSize] = 0xa5;
  request.SerializeTo(out);
  EXPECT_TRUE(std::equal(std::begin(request_image), std::end(request_image), out));
  EXPECT_EQ(out[ArpMessage::kSize], 0xa5);  // Exactly kSize bytes written.
  EXPECT_EQ(request.Serialize(),
            std::vector<uint8_t>(std::begin(request_image), std::end(request_image)));

  ArpMessage reply;
  reply.op = ArpOp::kReply;
  reply.sender_mac = MacAddress::FromId(0x0102);
  reply.sender_ip = Ipv4Address(10, 0, 0, 2);
  reply.target_mac = MacAddress::FromId(0xbeef);
  reply.target_ip = Ipv4Address(192, 168, 255, 254);
  const uint8_t reply_image[ArpMessage::kSize] = {
      0x00, 0x01, 0x08, 0x00, 0x06, 0x04, 0x00, 0x02,  // Ethernet, IPv4, lengths 6 and 4, reply.
      0x02, 0x00, 0x00, 0x00, 0x01, 0x02,              // Sender MAC.
      0x0a, 0x00, 0x00, 0x02,                          // Sender IP 10.0.0.2.
      0x02, 0x00, 0x00, 0x00, 0xbe, 0xef,              // Target MAC.
      0xc0, 0xa8, 0xff, 0xfe,                          // Target IP 192.168.255.254.
  };
  reply.SerializeTo(out);
  EXPECT_TRUE(std::equal(std::begin(reply_image), std::end(reply_image), out));
  EXPECT_EQ(reply.Serialize(),
            std::vector<uint8_t>(std::begin(reply_image), std::end(reply_image)));
}

TEST(ArpTest, RejectsBadHardwareType) {
  ArpMessage msg;
  auto bytes = msg.Serialize();
  bytes[1] = 99;  // Hardware type != Ethernet.
  EXPECT_FALSE(ArpMessage::Parse(bytes).has_value());
}

TEST(ArpTest, RejectsBadOp) {
  ArpMessage msg;
  auto bytes = msg.Serialize();
  bytes[7] = 9;  // Invalid op.
  EXPECT_FALSE(ArpMessage::Parse(bytes).has_value());
}

// --- EthernetFrame ---------------------------------------------------------

TEST(FrameTest, WireSizeIncludesOverhead) {
  EthernetFrame frame;
  frame.payload = std::vector<uint8_t>(100, 0);
  EXPECT_EQ(frame.WireSize(), 118u);
}

}  // namespace
}  // namespace msn
