// IP-within-IP encapsulation (IP protocol 4) and the tunnel endpoint that
// decapsulates received tunnel packets and re-injects the inner datagram.
//
// The paper implements VIF and the IPIP processing module "as one module for
// efficiency" (Figure 4); here they are two small classes sharing these
// helpers. Encapsulation genuinely prepends a 20-byte outer IPv4 header, so
// tunnel overhead is measurable on the wire.
#ifndef MSN_SRC_MIP_IPIP_H_
#define MSN_SRC_MIP_IPIP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "src/net/headers.h"
#include "src/node/ip_stack.h"

namespace msn {

// Wraps the inner wire image in an outer IPv4 header (protocol 4) addressed
// outer_src -> outer_dst with a fresh TTL. Zero-copy: the 20-byte outer
// header is prepended directly (allocation-free when the Packet has headroom
// and sole ownership). Fills `outer_header` with the parsed form of the
// prepended header; the return value is the complete outer wire image, ready
// for IpStack::SendPreformedPacket.
// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
[[nodiscard]] Packet EncapsulateIpIpPacket(Ipv4Header& outer_header, Packet inner_wire,
                                           Ipv4Address outer_src, Ipv4Address outer_dst);

// Extracts the inner datagram from an IPIP payload. Returns nullopt if the
// payload is not a valid IPv4 datagram.
[[nodiscard]] std::optional<Ipv4Datagram> DecapsulateIpIp(
    std::span<const uint8_t> outer_payload);

// Registers as the protocol-4 handler on a stack. Each received tunnel packet
// is decapsulated and the inner datagram re-injected into the stack's receive
// path (delivered locally on a mobile host; forwarded onward on a home
// agent). An optional inspector sees (outer header, inner header, inner wire
// image) first and may veto re-injection by returning false. The inner wire
// image is the outer payload trimmed to the inner datagram: it shares the
// received packet's storage, so inspecting it copies nothing. An inspector
// that keeps the bytes past the call builds its own copy.
class IpIpTunnelEndpoint {
 public:
  using Inspector = std::function<bool(const Ipv4Header& outer, const Ipv4Header& inner,
                                       const Packet& inner_wire)>;

  explicit IpIpTunnelEndpoint(IpStack& stack);
  ~IpIpTunnelEndpoint();

  IpIpTunnelEndpoint(const IpIpTunnelEndpoint&) = delete;
  IpIpTunnelEndpoint& operator=(const IpIpTunnelEndpoint&) = delete;

  void SetInspector(Inspector inspector) { inspector_ = std::move(inspector); }

  uint64_t packets_decapsulated() const { return packets_decapsulated_; }
  uint64_t decapsulation_errors() const { return decapsulation_errors_; }

 private:
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void OnIpIp(const Ipv4Header& header, Packet payload, NetDevice* ingress);

  IpStack& stack_;
  Inspector inspector_;
  uint64_t packets_decapsulated_ = 0;
  uint64_t decapsulation_errors_ = 0;
  // Current nesting level while unwrapping tunnel-in-tunnel packets; bounds
  // the indirect recursion through InjectReceivedPacket.
  int decap_depth_ = 0;
};

}  // namespace msn

#endif  // MSN_SRC_MIP_IPIP_H_
