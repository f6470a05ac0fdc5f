// Wire formats: IPv4, UDP, ICMP, and ARP headers with real network-byte-order
// serialization and Internet checksums. Encapsulation (IP-in-IP, protocol 4)
// genuinely prepends a 20-byte outer header, so header overhead measured by
// the benchmarks is emergent rather than assumed.
#ifndef MSN_SRC_NET_HEADERS_H_
#define MSN_SRC_NET_HEADERS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/net/address.h"
#include "src/net/packet.h"
#include "src/util/byte_buffer.h"

namespace msn {

// IP protocol numbers used in this system.
enum class IpProto : uint8_t {
  kIcmp = 1,
  kIpIp = 4,  // IP-within-IP encapsulation (the tunnel protocol).
  kTcp = 6,   // Used by tcplite.
  kUdp = 17,
};

const char* IpProtoName(IpProto proto);

// IPv4 header, fixed 20 bytes (options unsupported, as in the paper's use).
struct Ipv4Header {
  static constexpr size_t kSize = 20;
  static constexpr uint8_t kDefaultTtl = 64;

  uint8_t tos = 0;
  uint16_t total_length = 0;  // Header + payload, filled by Serialize helpers.
  uint16_t identification = 0;
  // Fragmentation fields (RFC 791). `fragment_offset` is in 8-byte units.
  bool dont_fragment = false;
  bool more_fragments = false;
  uint16_t fragment_offset = 0;
  uint8_t ttl = kDefaultTtl;
  IpProto protocol = IpProto::kUdp;
  Ipv4Address src;
  Ipv4Address dst;

  // Serializes with a freshly computed header checksum.
  void Serialize(ByteWriter& w) const;
  // Serializes straight into `out` (>= kSize bytes), checksum included. The
  // allocation-free variant the zero-copy datapath uses to patch wire images
  // in place.
  void SerializeTo(uint8_t* out) const;
  // Parses and verifies the header checksum. Returns nullopt on truncation,
  // bad version, or checksum failure.
  [[nodiscard]] static std::optional<Ipv4Header> Parse(ByteReader& r);

  bool IsFragment() const { return more_fragments || fragment_offset != 0; }

  std::string ToString() const;
};

// Builds a complete IPv4 datagram (header + payload bytes).
[[nodiscard]] std::vector<uint8_t> BuildIpv4Datagram(const Ipv4Header& header,
                                       const std::vector<uint8_t>& payload);

// Builds the wire image as a pool-backed Packet with headroom for later
// encapsulation. `header.total_length` is filled in, as in BuildIpv4Datagram.
[[nodiscard]] Packet BuildIpv4Packet(Ipv4Header& header, std::span<const uint8_t> payload);

// A parsed IPv4 datagram: header plus an owned payload copy. The zero-copy
// forwarding path never materializes one of these; they serve the endpoint
// and test paths where owning the bytes is the point.
struct Ipv4Datagram {
  Ipv4Header header;
  std::vector<uint8_t> payload;

  [[nodiscard]] static std::optional<Ipv4Datagram> Parse(std::span<const uint8_t> bytes);
  [[nodiscard]] std::vector<uint8_t> Serialize() const {
    return BuildIpv4Datagram(header, payload);
  }
};

// UDP header (8 bytes) + payload. Checksum covers the RFC 768 pseudo-header.
struct UdpDatagram {
  static constexpr size_t kHeaderSize = 8;

  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  std::vector<uint8_t> payload;

  // Writes the header, `payload` and the pseudo-header checksum for the
  // given address pair into `out` (>= kHeaderSize + payload.size() bytes).
  // A computed checksum of 0 goes out as 0xffff (RFC 768). The one UDP
  // builder: the send path writes straight into the datagram's Packet.
  static void SerializeTo(uint8_t* out, uint16_t src_port, uint16_t dst_port,
                          std::span<const uint8_t> payload, Ipv4Address src_ip, Ipv4Address dst_ip);
  // SerializeTo into a fresh vector.
  [[nodiscard]] std::vector<uint8_t> Serialize(Ipv4Address src_ip, Ipv4Address dst_ip) const;
  // Parses and verifies the checksum against the given address pair.
  [[nodiscard]] static std::optional<UdpDatagram> Parse(std::span<const uint8_t> bytes,
                                                        Ipv4Address src_ip, Ipv4Address dst_ip);
};

// ICMP message types used by the system.
enum class IcmpType : uint8_t {
  kEchoReply = 0,
  kDestinationUnreachable = 3,
  // Sent by a router that forwarded a packet back out its arrival interface:
  // the host has a better first hop on its own subnet (RFC 792).
  kRedirect = 5,
  kEchoRequest = 8,
};

// Destination-unreachable codes we generate.
enum class IcmpUnreachableCode : uint8_t {
  kNetUnreachable = 0,
  kHostUnreachable = 1,
  kPortUnreachable = 3,
  // Datagram exceeds the next hop's MTU and DF is set (RFC 1191 path-MTU
  // discovery signal).
  kFragmentationNeeded = 4,
  // Sent by routers enforcing transit-traffic filtering; this is the signal
  // the mobile host uses to fall back from the triangle-route optimization.
  kAdminProhibited = 13,
};

struct IcmpMessage {
  static constexpr size_t kHeaderSize = 8;

  IcmpType type = IcmpType::kEchoRequest;
  uint8_t code = 0;
  // For echo: identifier (high 16) and sequence (low 16). For unreachable: 0.
  uint32_t rest = 0;
  // For echo: user data. For unreachable: the offending IP header + 8 bytes.
  std::vector<uint8_t> payload;

  uint16_t echo_id() const { return static_cast<uint16_t>(rest >> 16); }
  uint16_t echo_seq() const { return static_cast<uint16_t>(rest & 0xffff); }
  static uint32_t MakeEchoRest(uint16_t id, uint16_t seq) {
    return (static_cast<uint32_t>(id) << 16) | seq;
  }

  [[nodiscard]] std::vector<uint8_t> Serialize() const;
  [[nodiscard]] static std::optional<IcmpMessage> Parse(std::span<const uint8_t> bytes);
};

// ARP for IPv4-over-Ethernet (RFC 826).
enum class ArpOp : uint16_t {
  kRequest = 1,
  kReply = 2,
};

struct ArpMessage {
  static constexpr size_t kSize = 28;

  ArpOp op = ArpOp::kRequest;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;  // Zero in requests.
  Ipv4Address target_ip;

  // Writes the kSize-byte message into `out`.
  void SerializeTo(uint8_t* out) const;
  // SerializeTo into a fresh vector.
  [[nodiscard]] std::vector<uint8_t> Serialize() const;
  [[nodiscard]] static std::optional<ArpMessage> Parse(std::span<const uint8_t> bytes);

  std::string ToString() const;
};

}  // namespace msn

#endif  // MSN_SRC_NET_HEADERS_H_
