// UDP sockets.
//
// A socket may optionally bind a *source address*. Per the paper's two-roles
// design (§5.2): a socket with no bound source is an ordinary, non-mobile-
// aware application — the mobile host assigns it the home address and full
// mobile-IP treatment. A socket that binds a source address (e.g. the current
// care-of address, or a specific interface's address) is "mobile-aware" /
// local-role traffic and bypasses mobility policy entirely.
#ifndef MSN_SRC_NODE_UDP_H_
#define MSN_SRC_NODE_UDP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/net/address.h"
#include "src/net/headers.h"

namespace msn {

class IpStack;
class NetDevice;

class UdpSocket {
 public:
  struct Metadata {
    Ipv4Address src;
    uint16_t src_port = 0;
    Ipv4Address dst;       // The address the datagram was sent to.
    NetDevice* ingress = nullptr;
    // Link-layer source of the frame that carried the datagram (Zero for
    // locally generated or tunnel-decapsulated traffic). A foreign agent
    // uses this to learn visiting mobile hosts' hardware addresses.
    MacAddress link_src;
  };
  using ReceiveHandler =
      std::function<void(const std::vector<uint8_t>& data, const Metadata& meta)>;

  explicit UdpSocket(IpStack& stack);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  // Binds a local port; 0 picks an ephemeral port. Returns false if no port
  // could be allocated.
  [[nodiscard]] bool Bind(uint16_t port);
  // Pins the source address (marks this socket mobile-aware / local-role).
  void BindSourceAddress(Ipv4Address addr) { bound_src_ = addr; }
  Ipv4Address bound_source() const { return bound_src_; }

  void SetReceiveHandler(ReceiveHandler handler) { handler_ = std::move(handler); }

  // Sends a datagram. Binds an ephemeral port first if not yet bound. The
  // payload is copied into the datagram before the call returns; nothing
  // holds the span.
  void SendTo(Ipv4Address dst, uint16_t dst_port, std::span<const uint8_t> payload);
  // Variant with raw send options (used by DHCP for broadcast on an
  // unconfigured interface).
  struct SendExtras {
    NetDevice* force_device = nullptr;
    bool force_broadcast_mac = false;
    // Frame the datagram to this specific link-layer address (bypasses ARP;
    // used by hosts without an address talking to a known foreign agent).
    std::optional<MacAddress> force_dst_mac;
    bool allow_unconfigured_source = false;
  };
  void SendToWithExtras(Ipv4Address dst, uint16_t dst_port, std::span<const uint8_t> payload,
                        const SendExtras& extras);

  uint16_t local_port() const { return local_port_; }
  bool bound() const { return local_port_ != 0; }

  // Called by the stack on delivery.
  void Deliver(const std::vector<uint8_t>& data, const Metadata& meta);

  uint64_t datagrams_received() const { return datagrams_received_; }
  uint64_t datagrams_sent() const { return datagrams_sent_; }

 private:
  IpStack& stack_;
  uint16_t local_port_ = 0;
  Ipv4Address bound_src_;
  ReceiveHandler handler_;
  uint64_t datagrams_received_ = 0;
  uint64_t datagrams_sent_ = 0;
};

}  // namespace msn

#endif  // MSN_SRC_NODE_UDP_H_
