#include "src/net/headers.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "src/net/checksum.h"
#include "src/util/assert.h"

namespace msn {

// Largest payload that still fits a 16-bit total_length / length field.
inline constexpr size_t kMaxIpv4Payload = 0xffff - Ipv4Header::kSize;
inline constexpr size_t kMaxUdpPayload = 0xffff - UdpDatagram::kHeaderSize;

namespace {

// Big-endian stores for the in-place builders.
void StoreU16(uint8_t* out, uint16_t v) {
  out[0] = static_cast<uint8_t>(v >> 8);
  out[1] = static_cast<uint8_t>(v);
}

void StoreU32(uint8_t* out, uint32_t v) {
  StoreU16(out, static_cast<uint16_t>(v >> 16));
  StoreU16(out + 2, static_cast<uint16_t>(v));
}

}  // namespace

const char* IpProtoName(IpProto proto) {
  switch (proto) {
    case IpProto::kIcmp:
      return "ICMP";
    case IpProto::kIpIp:
      return "IPIP";
    case IpProto::kTcp:
      return "TCP";
    case IpProto::kUdp:
      return "UDP";
  }
  return "?";
}

void Ipv4Header::SerializeTo(uint8_t* out) const {
  out[0] = 0x45;  // Version 4, IHL 5 (20 bytes, no options).
  out[1] = tos;
  StoreU16(out + 2, total_length);
  StoreU16(out + 4, identification);
  uint16_t flags_frag = fragment_offset & 0x1fff;
  if (dont_fragment) {
    flags_frag |= 0x4000;
  }
  if (more_fragments) {
    flags_frag |= 0x2000;
  }
  StoreU16(out + 6, flags_frag);
  out[8] = ttl;
  out[9] = static_cast<uint8_t>(protocol);
  StoreU32(out + 12, src.value());
  StoreU32(out + 16, dst.value());
  // The sum masks the checksum field, so it needs no placeholder.
  StoreU16(out + 10, ComputeIpv4HeaderChecksum(out));
}

void Ipv4Header::Serialize(ByteWriter& w) const {
  uint8_t bytes[kSize];
  SerializeTo(bytes);
  w.WriteBytes(bytes, kSize);
}

std::optional<Ipv4Header> Ipv4Header::Parse(ByteReader& r) {
  if (r.remaining() < kSize) {
    return std::nullopt;
  }
  const uint8_t* b = r.ReadSpan(kSize).data();
  if ((b[0] >> 4) != 4 || (b[0] & 0x0f) != 5) {
    return std::nullopt;
  }
  const auto u16 = [b](size_t i) {
    return static_cast<uint16_t>((static_cast<uint16_t>(b[i]) << 8) | b[i + 1]);
  };
  Ipv4Header h;
  h.tos = b[1];
  h.total_length = u16(2);
  h.identification = u16(4);
  const uint16_t flags_frag = u16(6);
  h.dont_fragment = (flags_frag & 0x4000) != 0;
  h.more_fragments = (flags_frag & 0x2000) != 0;
  h.fragment_offset = flags_frag & 0x1fff;
  h.ttl = b[8];
  h.protocol = static_cast<IpProto>(b[9]);
  h.src = Ipv4Address((static_cast<uint32_t>(u16(12)) << 16) | u16(14));
  h.dst = Ipv4Address((static_cast<uint32_t>(u16(16)) << 16) | u16(18));
  // Recompute the checksum over the 18 other header bytes, in place, and
  // compare it with the wire field. Folding all 20 bytes to zero instead
  // would also accept 0xffff on the wire where the recomputed value is
  // 0x0000, which a sender never writes (DESIGN.md §12, "Checksums").
  if (ComputeIpv4HeaderChecksum(b) != u16(10)) {
    return std::nullopt;
  }
  return h;
}

std::string Ipv4Header::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %s -> %s ttl=%u len=%u%s%s", IpProtoName(protocol),
                src.ToString().c_str(), dst.ToString().c_str(), ttl, total_length,
                IsFragment() ? " frag" : "", dont_fragment ? " DF" : "");
  return buf;
}

std::vector<uint8_t> BuildIpv4Datagram(const Ipv4Header& header,
                                       const std::vector<uint8_t>& payload) {
  Ipv4Header h = header;
  MSN_CHECK(payload.size() <= kMaxIpv4Payload)
      << "IPv4 payload of " << payload.size() << " bytes would truncate total_length";
  h.total_length = static_cast<uint16_t>(Ipv4Header::kSize + payload.size());
  ByteWriter w(h.total_length);
  h.Serialize(w);
  w.WriteBytes(payload);
  return w.Take();
}

Packet BuildIpv4Packet(Ipv4Header& header, std::span<const uint8_t> payload) {
  MSN_CHECK(payload.size() <= kMaxIpv4Payload)
      << "IPv4 payload of " << payload.size() << " bytes would truncate total_length";
  header.total_length = static_cast<uint16_t>(Ipv4Header::kSize + payload.size());
  Packet wire = Packet::Allocate(header.total_length);
  uint8_t* out = wire.MutableData();
  header.SerializeTo(out);
  if (!payload.empty()) {
    std::copy(payload.begin(), payload.end(), out + Ipv4Header::kSize);
  }
  return wire;
}

std::optional<Ipv4Datagram> Ipv4Datagram::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes.data(), bytes.size());
  auto header = Ipv4Header::Parse(r);
  if (!header) {
    return std::nullopt;
  }
  if (header->total_length < Ipv4Header::kSize || header->total_length > bytes.size()) {
    return std::nullopt;
  }
  Ipv4Datagram dg;
  dg.header = *header;
  const auto payload = r.ReadSpan(header->total_length - Ipv4Header::kSize);
  if (!r.ok()) {
    return std::nullopt;
  }
  dg.payload.assign(payload.begin(), payload.end());
  return dg;
}

namespace {

// RFC 768 pseudo-header contribution for UDP checksums.
void AddUdpPseudoHeader(InternetChecksum& cs, Ipv4Address src_ip, Ipv4Address dst_ip,
                        uint16_t udp_length) {
  cs.AddU32(src_ip.value());
  cs.AddU32(dst_ip.value());
  cs.AddU16(static_cast<uint16_t>(IpProto::kUdp));
  cs.AddU16(udp_length);
}

}  // namespace

void UdpDatagram::SerializeTo(uint8_t* out, uint16_t src_port, uint16_t dst_port,
                              std::span<const uint8_t> payload, Ipv4Address src_ip,
                              Ipv4Address dst_ip) {
  MSN_CHECK(payload.size() <= kMaxUdpPayload)
      << "UDP payload of " << payload.size() << " bytes would truncate the length field";
  const uint16_t length = static_cast<uint16_t>(kHeaderSize + payload.size());
  StoreU16(out, src_port);
  StoreU16(out + 2, dst_port);
  StoreU16(out + 4, length);
  StoreU16(out + 6, 0);  // Checksum placeholder.
  if (!payload.empty()) {
    std::memcpy(out + kHeaderSize, payload.data(), payload.size());
  }
  InternetChecksum cs;
  AddUdpPseudoHeader(cs, src_ip, dst_ip, length);
  cs.Add(out, length);
  uint16_t checksum = cs.Fold();
  if (checksum == 0) {
    checksum = 0xffff;  // RFC 768: transmitted zero means "no checksum".
  }
  StoreU16(out + 6, checksum);
}

std::vector<uint8_t> UdpDatagram::Serialize(Ipv4Address src_ip, Ipv4Address dst_ip) const {
  std::vector<uint8_t> out(kHeaderSize + payload.size());
  SerializeTo(out.data(), src_port, dst_port, payload, src_ip, dst_ip);
  return out;
}

std::optional<UdpDatagram> UdpDatagram::Parse(std::span<const uint8_t> bytes,
                                              Ipv4Address src_ip, Ipv4Address dst_ip) {
  ByteReader r(bytes.data(), bytes.size());
  if (r.remaining() < kHeaderSize) {
    return std::nullopt;
  }
  UdpDatagram dg;
  dg.src_port = r.ReadU16();
  dg.dst_port = r.ReadU16();
  const uint16_t length = r.ReadU16();
  const uint16_t wire_checksum = r.ReadU16();
  if (length < kHeaderSize || length > bytes.size()) {
    return std::nullopt;
  }
  const auto payload = r.ReadSpan(length - kHeaderSize);
  if (!r.ok()) {
    return std::nullopt;
  }
  dg.payload.assign(payload.begin(), payload.end());
  if (wire_checksum != 0) {
    InternetChecksum cs;
    AddUdpPseudoHeader(cs, src_ip, dst_ip, length);
    cs.Add(bytes.data(), length);
    if (cs.Fold() != 0) {
      return std::nullopt;
    }
  }
  return dg;
}

std::vector<uint8_t> IcmpMessage::Serialize() const {
  ByteWriter w(kHeaderSize + payload.size());
  w.WriteU8(static_cast<uint8_t>(type));
  w.WriteU8(code);
  w.WriteU16(0);  // Checksum placeholder.
  w.WriteU32(rest);
  w.WriteBytes(payload);
  w.PatchU16(2, ComputeInternetChecksum(w.data()));
  return w.Take();
}

std::optional<IcmpMessage> IcmpMessage::Parse(std::span<const uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) {
    return std::nullopt;
  }
  if (!VerifyInternetChecksum(bytes.data(), bytes.size())) {
    return std::nullopt;
  }
  ByteReader r(bytes.data(), bytes.size());
  IcmpMessage msg;
  msg.type = static_cast<IcmpType>(r.ReadU8());
  msg.code = r.ReadU8();
  r.Skip(2);  // Checksum (already verified).
  msg.rest = r.ReadU32();
  const auto payload = r.RemainingSpan();
  msg.payload.assign(payload.begin(), payload.end());
  return msg;
}

void ArpMessage::SerializeTo(uint8_t* out) const {
  StoreU16(out, 1);           // Hardware type: Ethernet.
  StoreU16(out + 2, 0x0800);  // Protocol type: IPv4.
  out[4] = 6;                 // Hardware address length.
  out[5] = 4;                 // Protocol address length.
  StoreU16(out + 6, static_cast<uint16_t>(op));
  std::memcpy(out + 8, sender_mac.bytes().data(), 6);
  StoreU32(out + 14, sender_ip.value());
  std::memcpy(out + 18, target_mac.bytes().data(), 6);
  StoreU32(out + 24, target_ip.value());
}

std::vector<uint8_t> ArpMessage::Serialize() const {
  std::vector<uint8_t> out(kSize);
  SerializeTo(out.data());
  return out;
}

std::optional<ArpMessage> ArpMessage::Parse(std::span<const uint8_t> bytes) {
  ByteReader r(bytes.data(), bytes.size());
  if (r.remaining() < kSize) {
    return std::nullopt;
  }
  if (r.ReadU16() != 1 || r.ReadU16() != 0x0800 || r.ReadU8() != 6 || r.ReadU8() != 4) {
    return std::nullopt;
  }
  ArpMessage msg;
  const uint16_t op = r.ReadU16();
  if (op != 1 && op != 2) {
    return std::nullopt;
  }
  msg.op = static_cast<ArpOp>(op);
  // Span views into the frame: the MAC bytes are copied into the fixed-size
  // address, never through an intermediate heap vector.
  const auto smac = r.ReadSpan(6);
  msg.sender_ip = Ipv4Address(r.ReadU32());
  const auto tmac = r.ReadSpan(6);
  msg.target_ip = Ipv4Address(r.ReadU32());
  if (!r.ok()) {
    return std::nullopt;
  }
  std::array<uint8_t, 6> m;
  std::copy(smac.begin(), smac.end(), m.begin());
  msg.sender_mac = MacAddress(m);
  std::copy(tmac.begin(), tmac.end(), m.begin());
  msg.target_mac = MacAddress(m);
  return msg;
}

std::string ArpMessage::ToString() const {
  char buf[160];
  if (op == ArpOp::kRequest) {
    std::snprintf(buf, sizeof(buf), "ARP who-has %s tell %s (%s)", target_ip.ToString().c_str(),
                  sender_ip.ToString().c_str(), sender_mac.ToString().c_str());
  } else {
    std::snprintf(buf, sizeof(buf), "ARP %s is-at %s", sender_ip.ToString().c_str(),
                  sender_mac.ToString().c_str());
  }
  return buf;
}

}  // namespace msn
