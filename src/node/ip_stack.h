// The host IP stack: interfaces, routing, ARP, send/receive/forward
// pipelines, and protocol demultiplexing.
//
// This is the simulation analogue of the Linux 1.2.13 networking code the
// paper modified. The paper's single kernel hook — the route lookup function
// ip_rt_route() — is exposed here as `RouteLookupOverride`: a callback
// consulted before the normal routing table that can redirect a packet to a
// different device (e.g. the encapsulating VIF) and/or rewrite its source
// address (e.g. to the mobile host's home address). All mobile-IP policy is
// injected through that one hook, mirroring the paper's design (§3.3).
#ifndef MSN_SRC_NODE_IP_STACK_H_
#define MSN_SRC_NODE_IP_STACK_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/address.h"
#include "src/net/frame.h"
#include "src/net/headers.h"
#include "src/node/arp.h"
#include "src/node/reassembly.h"
#include "src/node/routing_table.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"

namespace msn {

class NetDevice;
class UdpSocket;

// A question put to the route lookup: where should a packet to `dst` go, and
// with what source address?
struct RouteQuery {
  Ipv4Address dst;
  // Non-Any when the application explicitly bound a source address. Per the
  // paper (§3.3), such packets are "outside the scope of mobile IP": the
  // mobility override must leave them alone.
  Ipv4Address src_hint;
  // True when the query is for a forwarded (not locally originated) packet.
  bool forwarding = false;
  // True when the caller only needs the answer (e.g. source-address selection
  // before serializing a UDP checksum) and no packet is transmitted by this
  // lookup. Lets policy code keep accurate per-packet counters.
  bool advisory = false;
};

// The answer: output device, source address, and next hop to ARP for.
struct RouteDecision {
  NetDevice* device = nullptr;
  Ipv4Address src;
  // The IP the link layer should resolve: the gateway, or the destination
  // itself when on-link. Any() means "destination itself".
  Ipv4Address next_hop;

  // Override partial answer: the forwarding answer comes from the normal
  // routing table (the MPT's kDirect local role). Never escapes RouteLookup.
  bool defer_to_table = false;

  Ipv4Address EffectiveNextHop(Ipv4Address dst) const {
    return next_hop.IsAny() ? dst : next_hop;
  }
};

class IpStack {
 public:
  // `payload` is the received wire image past the IP header, moved in: the
  // handler holds the only reference the stack had, so it may keep, trim or
  // re-inject it (the tunnel endpoint forwards the inner datagram) without a
  // copy. Handlers that only read may still take it as `const Packet&`.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  using ProtocolHandler = std::function<void(const Ipv4Header& header, Packet payload,
                                             NetDevice* ingress)>;
  using RouteLookupOverride =
      std::function<std::optional<RouteDecision>(const RouteQuery& query)>;
  // Return false to drop the packet (transit filtering); the stack then sends
  // ICMP destination-unreachable/admin-prohibited back to the source.
  using ForwardFilter = std::function<bool(const Ipv4Header& header, NetDevice* ingress)>;
  // Invoked when an ICMP error (destination unreachable) arrives, with the
  // header of the offending packet extracted from the ICMP payload.
  using IcmpErrorHandler =
      std::function<void(const IcmpMessage& icmp, const Ipv4Header& offending)>;

  // Per-packet software processing cost, modeling mid-90s kernel overhead
  // (40 MHz 486 mobile hosts, Pentium 90 router). Zero by default so unit
  // tests see exact timing; the testbed builder sets calibrated values.
  struct DelayParams {
    Duration send_mean;
    Duration send_jitter;
    Duration deliver_mean;
    Duration deliver_jitter;
    Duration forward_mean;
    Duration forward_jitter;
  };

  struct SendOptions {
    // Bypass routing and use this device (DHCP on an unconfigured interface).
    NetDevice* force_device = nullptr;
    // Bypass ARP and use this link-layer destination.
    std::optional<MacAddress> force_dst_mac;
    uint8_t ttl = Ipv4Header::kDefaultTtl;
    // Permit src = Any() (a host that does not yet have an address).
    bool allow_unconfigured_source = false;
  };

  // The stack's accounting, named "ip.<node>.<field>" in the registry.
  struct Counters {
    uint64_t datagrams_sent = 0;
    uint64_t datagrams_delivered = 0;
    uint64_t datagrams_forwarded = 0;
    uint64_t drop_no_route = 0;
    uint64_t drop_arp_failure = 0;
    uint64_t drop_ttl = 0;
    uint64_t drop_filtered = 0;
    uint64_t drop_no_handler = 0;
    uint64_t drop_bad_packet = 0;
    uint64_t drop_device = 0;
    uint64_t drop_not_for_us = 0;
    uint64_t icmp_echo_replies_sent = 0;
    uint64_t icmp_errors_sent = 0;
    uint64_t icmp_redirects_sent = 0;
    uint64_t icmp_redirects_accepted = 0;
    uint64_t fragments_sent = 0;
    uint64_t drop_fragmentation_needed = 0;  // Oversized with DF set.
  };

  // The counters are named in `metrics` when given; counters() counts
  // either way.
  IpStack(Simulator& sim, std::string node_name, MetricsRegistry* metrics = nullptr);
  ~IpStack();

  IpStack(const IpStack&) = delete;
  IpStack& operator=(const IpStack&) = delete;

  Simulator& sim() { return sim_; }
  const std::string& node_name() const { return node_name_; }

  // --- Interfaces -----------------------------------------------------------

  // Registers a device with the stack (hooks its receive handler). The
  // device starts with no address.
  void AddInterface(NetDevice* device);

  // Assigns an address/mask and installs the connected-subnet route (what
  // `ifconfig` does). Replaces any previous address on the device.
  void ConfigureAddress(NetDevice* device, Ipv4Address addr, SubnetMask mask);
  // Removes the address and the connected route.
  void UnconfigureAddress(NetDevice* device);

  [[nodiscard]] std::optional<Ipv4Address> GetInterfaceAddress(NetDevice* device) const;
  [[nodiscard]] std::optional<Subnet> GetInterfaceSubnet(NetDevice* device) const;
  bool IsLocalAddress(Ipv4Address addr) const;
  std::vector<NetDevice*> Interfaces() const;

  // --- Routing --------------------------------------------------------------

  RoutingTable& routes() { return routes_; }
  ArpService& arp() { return *arp_; }
  ReassemblyService& reassembly() { return *reassembly_; }

  void SetRouteLookupOverride(RouteLookupOverride fn) { route_override_ = std::move(fn); }
  void ClearRouteLookupOverride() { route_override_ = nullptr; }

  // The paper's ip_rt_route(): override first, then the routing table.
  [[nodiscard]] std::optional<RouteDecision> RouteLookup(const RouteQuery& query);

  // RouteLookup as an advisory query: the same answer, with no per-packet
  // policy counting.
  [[nodiscard]] std::optional<RouteDecision> RouteLookupUncached(const RouteQuery& query);

  // --- Send path -------------------------------------------------------------

  // Builds and sends an IPv4 datagram. Failures are counted, not returned
  // (delivery is asynchronous, as on a real host).
  void SendDatagram(Ipv4Address src, Ipv4Address dst, IpProto proto,
                    std::vector<uint8_t> payload, SendOptions opts);
  void SendDatagram(Ipv4Address src, Ipv4Address dst, IpProto proto,
                    std::vector<uint8_t> payload);
  // Builds and sends a UDP datagram: the UDP header, `payload` and checksum
  // (over the pseudo-header for `src`, `dst`) and then the IP header are
  // written once, straight into the datagram's Packet. The bytes are copied
  // before the call returns; nothing holds `payload`.
  void SendUdp(Ipv4Address src, Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
               std::span<const uint8_t> payload, SendOptions opts);

  // Re-injects a fully formed datagram into the send path, preserving its
  // header fields (used by tunnel endpoints): `wire` is the complete
  // serialized datagram and `header` its parsed form
  // (header.total_length == wire.size()). The wire bytes are
  // forwarded/transmitted without reserialization.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void SendPreformedPacket(const Ipv4Header& header, Packet wire, bool forwarding);

  // --- Receive path -----------------------------------------------------------

  // Entry point wired to each device's receive handler. Consumes the frame:
  // for IPv4 the payload buffer flows onward into the receive/forward
  // pipeline without copying.
  void ReceiveFrame(NetDevice& device, EthernetFrame&& frame);

  // Injects a datagram into the receive path as if it had just arrived on
  // `ingress` (used by decapsulation: the inner packet "arrives" again and is
  // either delivered locally or forwarded, per the normal rules).
  void InjectReceivedDatagram(const Ipv4Datagram& dg, NetDevice* ingress,
                              MacAddress link_src = MacAddress::Zero());

  // Zero-copy variant of InjectReceivedDatagram: `wire` is the complete wire
  // image matching `header`. The receive/forward pipeline keeps the bytes
  // shared; only the per-hop TTL patch makes a copy, and only when the
  // buffer is still referenced elsewhere (e.g. a pcap tap holds the frame).
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void InjectReceivedPacket(const Ipv4Header& header, Packet wire, NetDevice* ingress,
                            MacAddress link_src = MacAddress::Zero());

  void RegisterProtocolHandler(IpProto proto, ProtocolHandler handler);
  void UnregisterProtocolHandler(IpProto proto);

  // --- Forwarding & filtering -------------------------------------------------

  void set_forwarding_enabled(bool enabled) { forwarding_enabled_ = enabled; }
  bool forwarding_enabled() const { return forwarding_enabled_; }
  void SetForwardFilter(ForwardFilter filter) { forward_filter_ = std::move(filter); }
  // Routers: send ICMP redirects when forwarding a packet back out its
  // arrival interface to a gateway on the sender's own subnet (RFC 792).
  void set_send_redirects(bool enabled) { send_redirects_ = enabled; }
  // Hosts: install a host route on receiving a redirect. The paper (S5.2)
  // notes a fully transparent mobile design would have to suppress these;
  // exposing real routes lets them work normally.
  void set_accept_redirects(bool enabled) { accept_redirects_ = enabled; }

  // --- ICMP -------------------------------------------------------------------

  // Sends an ICMP message to `dst` (source selected by routing).
  void SendIcmp(Ipv4Address dst, const IcmpMessage& msg, Ipv4Address src = Ipv4Address::Any());
  void SetIcmpErrorHandler(IcmpErrorHandler handler) { icmp_error_handler_ = std::move(handler); }
  // Echo replies/errors matching a pinger's id are routed to it (see Pinger).
  void RegisterEchoListener(uint16_t id,
                            std::function<void(const Ipv4Header&, const IcmpMessage&)> cb);
  void UnregisterEchoListener(uint16_t id);

  // --- UDP socket table (used by UdpSocket) -----------------------------------

  [[nodiscard]] bool BindUdpSocket(uint16_t port, UdpSocket* socket);
  void UnbindUdpSocket(uint16_t port, UdpSocket* socket);
  uint16_t AllocateEphemeralPort();

  // --- Knobs & stats -----------------------------------------------------------

  void set_delay_params(const DelayParams& p) { delays_ = p; }
  const DelayParams& delay_params() const { return delays_; }
  const Counters& counters() const { return counters_; }

 private:
  struct InterfaceEntry {
    NetDevice* device = nullptr;
    Ipv4Address addr;
    SubnetMask mask;
    bool configured = false;
  };

  InterfaceEntry* FindInterface(NetDevice* device);
  const InterfaceEntry* FindInterface(NetDevice* device) const;

  // A fresh locally originated header; takes the next IP identification.
  Ipv4Header NewHeader(Ipv4Address src, Ipv4Address dst, IpProto proto, uint8_t ttl);
  // First send stage shared by SendDatagram and SendUdp: counts the
  // datagram, draws the kernel send cost and schedules DoSend.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void StartSend(const Ipv4Header& header, Packet wire, SendOptions opts);

  Duration DrawDelay(Duration mean, Duration jitter);
  // Kernel stages are FIFO pipelines: each packet occupies the stage for its
  // drawn cost and packets never overtake each other. Returns the absolute
  // completion time and advances the stage clock.
  Time PipelineDelay(Time& busy_until, Duration mean, Duration jitter);

  // Second half of the send path, after the kernel processing delay. The
  // internal pipeline carries (parsed header, wire image) pairs; the
  // invariant throughout is header.total_length == wire.size() and the wire
  // bytes agree with the header fields.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void DoSend(Ipv4Header header, Packet wire, bool forwarding, SendOptions opts);
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void TransmitViaDevice(NetDevice* device, const Ipv4Header& header, Packet wire,
                         Ipv4Address next_hop, std::optional<MacAddress> force_dst_mac);
  // Destination MAC when it is known without link traffic (forced, broadcast,
  // loopback, ARP cache hit); nullopt means the caller must go through
  // ArpService::Resolve.
  [[nodiscard]] std::optional<MacAddress> ResolveDstMacFast(NetDevice* device,
                                                            Ipv4Address next_hop,
                                              std::optional<MacAddress> force_dst_mac);
  // Wraps one wire image in a link frame and hands it to the device.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void TransmitFrame(NetDevice* device, Packet wire, MacAddress dst_mac);
  void HandleIpv4Frame(NetDevice& device, EthernetFrame&& frame);
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void Forward(Ipv4Header header, Packet wire, NetDevice* ingress);
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void Deliver(const Ipv4Header& header, Packet payload, NetDevice* ingress,
               MacAddress link_src);
  void HandleIcmp(const Ipv4Header& header, const Packet& payload, NetDevice* ingress);
  void HandleUdp(const Ipv4Header& header, const Packet& payload, NetDevice* ingress,
                 MacAddress link_src);
  void DispatchUdp(const std::vector<UdpSocket*>& sockets, const Ipv4Header& header,
                   const UdpDatagram& dg, NetDevice* ingress, MacAddress link_src);
  void SendIcmpError(const Ipv4Header& offending, std::span<const uint8_t> payload,
                     IcmpUnreachableCode code);
  bool IsBroadcastFor(Ipv4Address addr) const;

  Simulator& sim_;
  std::string node_name_;
  std::vector<InterfaceEntry> interfaces_;
  RoutingTable routes_;
  std::unique_ptr<ArpService> arp_;
  std::unique_ptr<ReassemblyService> reassembly_;
  RouteLookupOverride route_override_;
  ForwardFilter forward_filter_;
  bool forwarding_enabled_ = false;
  bool send_redirects_ = false;
  bool accept_redirects_ = true;
  std::map<IpProto, ProtocolHandler> protocol_handlers_;
  // Hash maps are safe here only because nothing traverses them: delivery and
  // port allocation are point queries by port/id, and per-port fan-out order
  // comes from the inner vector (bind order), never from bucket order. A
  // future all-ports sweep must use sorted traversal — msn_analyze's
  // determinism/unordered-iteration rule flags the loop if one appears.
  std::unordered_map<uint16_t, std::vector<UdpSocket*>> udp_sockets_;
  std::unordered_map<uint16_t, std::function<void(const Ipv4Header&, const IcmpMessage&)>>
      echo_listeners_;
  IcmpErrorHandler icmp_error_handler_;
  DelayParams delays_;
  Time send_pipe_busy_;
  Time deliver_pipe_busy_;
  Time forward_pipe_busy_;
  MetricsRegistry* metrics_;  // Null: counters are not named.
  Counters counters_;
  uint16_t next_ip_id_ = 1;
  uint16_t next_ephemeral_port_ = 49152;
};

}  // namespace msn

#endif  // MSN_SRC_NODE_IP_STACK_H_
