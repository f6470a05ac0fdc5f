#include "src/mip/vif.h"

#include <utility>

namespace msn {

VirtualInterface::VirtualInterface(Simulator& sim, std::string name)
    : NetDevice(sim, std::move(name), MacAddress::Zero()) {
  set_bring_up_time(Duration());
  set_mtu(65535);
  ForceUp();
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
bool VirtualInterface::Transmit(EthernetFrame frame) {
  if (frame.ethertype != EtherType::kIpv4 || !encap_handler_) {
    return false;
  }
  ByteReader r(frame.payload.data(), frame.payload.size());
  auto header = Ipv4Header::Parse(r);
  if (!header || header->total_length < Ipv4Header::kSize ||
      header->total_length > frame.payload.size()) {
    return false;
  }
  ++packets_encapsulated_;
  Packet inner_wire = std::move(frame.payload);
  inner_wire.TrimTo(header->total_length);
  encap_handler_(*header, std::move(inner_wire));
  return true;
}

void VirtualInterface::SendToMedium(const EthernetFrame& frame) {
  (void)frame;  // Unreachable: Transmit never enqueues.
}

}  // namespace msn
