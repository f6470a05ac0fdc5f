#include "src/net/headers.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "src/net/checksum.h"
#include "src/util/assert.h"

namespace msn {

// Largest payload that still fits a 16-bit total_length / length field.
inline constexpr size_t kMaxIpv4Payload = 0xffff - Ipv4Header::kSize;
inline constexpr size_t kMaxUdpPayload = 0xffff - UdpDatagram::kHeaderSize;

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
  out[2] = static_cast<uint8_t>(total_length >> 8);
  out[3] = static_cast<uint8_t>(total_length);
  out[4] = static_cast<uint8_t>(identification >> 8);
  out[5] = static_cast<uint8_t>(identification);
  uint16_t flags_frag = fragment_offset & 0x1fff;
  if (dont_fragment) {
    flags_frag |= 0x4000;
  }
  if (more_fragments) {
    flags_frag |= 0x2000;
  }
  out[6] = static_cast<uint8_t>(flags_frag >> 8);
  out[7] = static_cast<uint8_t>(flags_frag);
  out[8] = ttl;
  out[9] = static_cast<uint8_t>(protocol);
  out[10] = 0;  // Checksum placeholder.
  out[11] = 0;
  const uint32_t s = src.value();
  const uint32_t d = dst.value();
  out[12] = static_cast<uint8_t>(s >> 24);
  out[13] = static_cast<uint8_t>(s >> 16);
  out[14] = static_cast<uint8_t>(s >> 8);
  out[15] = static_cast<uint8_t>(s);
  out[16] = static_cast<uint8_t>(d >> 24);
  out[17] = static_cast<uint8_t>(d >> 16);
  out[18] = static_cast<uint8_t>(d >> 8);
  out[19] = static_cast<uint8_t>(d);
  const uint16_t checksum = ComputeInternetChecksum(out, kSize);
  out[10] = static_cast<uint8_t>(checksum >> 8);
  out[11] = static_cast<uint8_t>(checksum);
}

void Ipv4Header::Serialize(ByteWriter& w) const {
  const size_t start = w.size();
  w.WriteU8(0x45);  // Version 4, IHL 5 (20 bytes, no options).
  w.WriteU8(tos);
  w.WriteU16(total_length);
  w.WriteU16(identification);
  uint16_t flags_frag = fragment_offset & 0x1fff;
  if (dont_fragment) {
    flags_frag |= 0x4000;
  }
  if (more_fragments) {
    flags_frag |= 0x2000;
  }
  w.WriteU16(flags_frag);
  w.WriteU8(ttl);
  w.WriteU8(static_cast<uint8_t>(protocol));
  w.WriteU16(0);  // Checksum placeholder.
  w.WriteU32(src.value());
  w.WriteU32(dst.value());
  const uint16_t checksum = ComputeInternetChecksum(w.data().data() + start, kSize);
  w.PatchU16(start + 10, checksum);
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
  InternetChecksum cs;
  cs.Add(b, 10);
  cs.Add(b + 12, kSize - 12);
  if (cs.Fold() != u16(10)) {
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

std::vector<uint8_t> UdpDatagram::Serialize(Ipv4Address src_ip, Ipv4Address dst_ip) const {
  MSN_CHECK(payload.size() <= kMaxUdpPayload)
      << "UDP payload of " << payload.size() << " bytes would truncate the length field";
  const uint16_t length = static_cast<uint16_t>(kHeaderSize + payload.size());
  ByteWriter w(length);
  w.WriteU16(src_port);
  w.WriteU16(dst_port);
  w.WriteU16(length);
  w.WriteU16(0);  // Checksum placeholder.
  w.WriteBytes(payload);

  InternetChecksum cs;
  AddUdpPseudoHeader(cs, src_ip, dst_ip, length);
  cs.Add(w.data());
  uint16_t checksum = cs.Fold();
  if (checksum == 0) {
    checksum = 0xffff;  // RFC 768: transmitted zero means "no checksum".
  }
  w.PatchU16(6, checksum);
  return w.Take();
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

std::vector<uint8_t> ArpMessage::Serialize() const {
  ByteWriter w(kSize);
  w.WriteU16(1);       // Hardware type: Ethernet.
  w.WriteU16(0x0800);  // Protocol type: IPv4.
  w.WriteU8(6);        // Hardware address length.
  w.WriteU8(4);        // Protocol address length.
  w.WriteU16(static_cast<uint16_t>(op));
  w.WriteBytes(sender_mac.bytes().data(), 6);
  w.WriteU32(sender_ip.value());
  w.WriteBytes(target_mac.bytes().data(), 6);
  w.WriteU32(target_ip.value());
  return w.Take();
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
