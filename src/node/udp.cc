#include "src/node/udp.h"

#include <utility>

#include "src/node/ip_stack.h"

namespace msn {

UdpSocket::UdpSocket(IpStack& stack) : stack_(stack) {}

UdpSocket::~UdpSocket() {
  if (local_port_ != 0) {
    stack_.UnbindUdpSocket(local_port_, this);
  }
}

bool UdpSocket::Bind(uint16_t port) {
  if (local_port_ != 0) {
    stack_.UnbindUdpSocket(local_port_, this);
    local_port_ = 0;
  }
  if (port == 0) {
    port = stack_.AllocateEphemeralPort();
    if (port == 0) {
      return false;
    }
  }
  if (!stack_.BindUdpSocket(port, this)) {
    return false;
  }
  local_port_ = port;
  return true;
}

void UdpSocket::SendTo(Ipv4Address dst, uint16_t dst_port, std::span<const uint8_t> payload) {
  SendToWithExtras(dst, dst_port, payload, SendExtras{});
}

void UdpSocket::SendToWithExtras(Ipv4Address dst, uint16_t dst_port,
                                 std::span<const uint8_t> payload, const SendExtras& extras) {
  if (local_port_ == 0 && !Bind(0)) {
    return;
  }
  // The UDP checksum covers a pseudo-header with the final source address.
  // When the socket is unbound the stack picks the source during routing, so
  // we must learn it before serializing. Run the route lookup here the same
  // way the kernel does for connected UDP sockets.
  Ipv4Address src = bound_src_;
  if (src.IsAny() && !extras.allow_unconfigured_source) {
    RouteQuery query{dst, Ipv4Address::Any(), /*forwarding=*/false, /*advisory=*/true};
    if (auto decision = stack_.RouteLookup(query)) {
      src = decision->src;
    }
  }
  IpStack::SendOptions opts;
  opts.force_device = extras.force_device;
  if (extras.force_broadcast_mac) {
    opts.force_dst_mac = MacAddress::Broadcast();
  } else if (extras.force_dst_mac.has_value()) {
    opts.force_dst_mac = extras.force_dst_mac;
  }
  opts.allow_unconfigured_source = extras.allow_unconfigured_source;
  ++datagrams_sent_;
  stack_.SendUdp(src, dst, local_port_, dst_port, payload, opts);
}

void UdpSocket::Deliver(const std::vector<uint8_t>& data, const Metadata& meta) {
  ++datagrams_received_;
  if (handler_) {
    handler_(data, meta);
  }
}

}  // namespace msn
