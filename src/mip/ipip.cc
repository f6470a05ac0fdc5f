#include "src/mip/ipip.h"

#include <utility>

#include "src/util/assert.h"
#include "src/util/logging.h"

namespace msn {

// Deepest tunnel-in-tunnel nesting the endpoint will unwrap in one receive.
// Normal operation uses one level (HA -> care-of), two with a reverse tunnel
// inside an outage drill; anything deeper is a forwarding loop or a crafted
// packet, and unwrapping it would recurse once per layer.
inline constexpr int kMaxDecapDepth = 4;

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
Packet EncapsulateIpIpPacket(Ipv4Header& outer_header, Packet inner_wire,
                             Ipv4Address outer_src, Ipv4Address outer_dst) {
  outer_header = Ipv4Header{};
  outer_header.protocol = IpProto::kIpIp;
  outer_header.src = outer_src;
  outer_header.dst = outer_dst;
  outer_header.ttl = Ipv4Header::kDefaultTtl;
  outer_header.total_length =
      static_cast<uint16_t>(Ipv4Header::kSize + inner_wire.size());
  uint8_t hdr[Ipv4Header::kSize];
  outer_header.SerializeTo(hdr);
  inner_wire.Prepend(std::span<const uint8_t>(hdr, Ipv4Header::kSize));
  return inner_wire;
}

std::optional<Ipv4Datagram> DecapsulateIpIp(std::span<const uint8_t> outer_payload) {
  return Ipv4Datagram::Parse(outer_payload);
}

IpIpTunnelEndpoint::IpIpTunnelEndpoint(IpStack& stack) : stack_(stack) {
  stack_.RegisterProtocolHandler(
      // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
      IpProto::kIpIp, [this](const Ipv4Header& header, Packet payload, NetDevice* ingress) {
        OnIpIp(header, std::move(payload), ingress);
      });
}

IpIpTunnelEndpoint::~IpIpTunnelEndpoint() { stack_.UnregisterProtocolHandler(IpProto::kIpIp); }

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void IpIpTunnelEndpoint::OnIpIp(const Ipv4Header& header, Packet payload, NetDevice* ingress) {
  // Parse the inner header in place; the inner wire image is the outer
  // payload trimmed to the inner datagram, so decapsulation strips the outer
  // header without copying, and the endpoint, holding the only reference,
  // hands it on for the forward path's TTL patch to edit in place.
  ByteReader r(payload.data(), payload.size());
  auto inner_header = Ipv4Header::Parse(r);
  if (!inner_header || inner_header->total_length < Ipv4Header::kSize ||
      inner_header->total_length > payload.size()) {
    ++decapsulation_errors_;
    return;
  }
  // A nested tunnel packet re-enters OnIpIp from InjectReceivedPacket below,
  // one stack frame per layer; bound that recursion.
  if (decap_depth_ >= kMaxDecapDepth) {
    ++decapsulation_errors_;
    MSN_WARN("ipip", "%s: dropping tunnel packet nested deeper than %d levels",
             stack_.node_name().c_str(), kMaxDecapDepth);
    return;
  }
  payload.TrimTo(inner_header->total_length);
  if (inspector_ && !inspector_(header, *inner_header, payload)) {
    return;
  }
  ++packets_decapsulated_;
  MSN_TRACE("ipip", "%s: decapsulated %s", stack_.node_name().c_str(),
            inner_header->ToString().c_str());
  // Re-inject with no ingress device: the inner packet logically originates
  // at the tunnel endpoint, so interface-level transit filters must not be
  // re-applied to it.
  (void)ingress;
  ++decap_depth_;
  stack_.InjectReceivedPacket(*inner_header, std::move(payload), nullptr);
  --decap_depth_;
  MSN_ASSERT(decap_depth_ >= 0);
}

}  // namespace msn
