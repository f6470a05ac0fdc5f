// VIF: the virtual link-level interface that accepts packets requiring
// IP-within-IP encapsulation (paper Figure 4). A route decision naming the
// VIF as output device causes the IP layer to hand it the packet; the VIF
// passes the parsed datagram to its encapsulation handler, which wraps it and
// re-enters the IP send path as a new protocol-4 packet. The handler sets the
// outer source to a *physical* interface's address, which is what prevents a
// second encapsulation (the route lookup sees a non-mobile source).
#ifndef MSN_SRC_MIP_VIF_H_
#define MSN_SRC_MIP_VIF_H_

#include <functional>
#include <string>

#include "src/link/net_device.h"
#include "src/net/headers.h"

namespace msn {

class VirtualInterface : public NetDevice {
 public:
  // Receives the parsed inner header plus the complete inner wire image: the
  // transmitted frame's payload, moved in and trimmed to the datagram, so the
  // handler holds the only reference and can prepend the outer header into
  // its headroom without copying.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  using EncapHandler = std::function<void(const Ipv4Header& inner, Packet inner_wire)>;

  VirtualInterface(Simulator& sim, std::string name = "vif");

  void SetEncapHandler(EncapHandler handler) { encap_handler_ = std::move(handler); }

  // The IP layer transmits an already-serialized datagram; re-parse its
  // header and hand the wire image to the encapsulation handler. No
  // queueing, no serialization delay: the VIF is pure software.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  bool Transmit(EthernetFrame frame) override;

  uint64_t bandwidth_bps() const override { return 0; }

  uint64_t packets_encapsulated() const { return packets_encapsulated_; }

 protected:
  void SendToMedium(const EthernetFrame& frame) override;

 private:
  EncapHandler encap_handler_;
  uint64_t packets_encapsulated_ = 0;
};

}  // namespace msn

#endif  // MSN_SRC_MIP_VIF_H_
