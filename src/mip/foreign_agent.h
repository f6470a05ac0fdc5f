// Foreign agent — the extension the paper deliberately leaves out of its
// basic protocol but explicitly allows (§5.1: "there is nothing that prevents
// us from implementing or using foreign agents").
//
// The FA is a host on a visited network that serves as the care-of point for
// visiting mobile hosts that cannot (or prefer not to) obtain their own
// temporary address:
//
//  * it broadcasts periodic agent advertisements so visitors can find it;
//  * it relays registration requests (care-of = the FA's address) to the
//    visitor's home agent and relays replies back by link-layer address;
//  * it decapsulates tunnel packets from home agents and hands the inner
//    packets to visitors by MAC — the visitor needs no IP address at all on
//    the visited network;
//  * optionally (the A1 ablation knob), after a visitor departs it forwards
//    late tunnel packets to the visitor's new care-of address, using the
//    home agent's BindingUpdate notification — the packet-loss reduction the
//    paper's §5.1 weighs against the cost of deploying FAs everywhere.
#ifndef MSN_SRC_MIP_FOREIGN_AGENT_H_
#define MSN_SRC_MIP_FOREIGN_AGENT_H_

#include <map>
#include <memory>

#include "src/mip/ipip.h"
#include "src/mip/messages.h"
#include "src/node/node.h"
#include "src/node/udp.h"

namespace msn {

class ForeignAgent {
 public:
  struct Config {
    // The FA's address on its network (also the care-of address it offers).
    Ipv4Address address;
    NetDevice* device = nullptr;
    // The A1 ablation knob: forward late tunnel packets to a departed
    // visitor's new care-of address.
    bool forward_after_departure = true;
  };

  struct Counters {
    uint64_t advertisements_sent = 0;
    uint64_t requests_relayed = 0;
    uint64_t replies_relayed = 0;
    uint64_t packets_delivered = 0;
    uint64_t packets_forwarded_after_departure = 0;
    uint64_t packets_buffered = 0;
    uint64_t packets_buffer_dropped = 0;  // Buffer overflow or grace expiry.
    uint64_t packets_dropped_unknown_visitor = 0;
    uint64_t binding_updates_received = 0;
  };

  static constexpr Duration kAdvertisementInterval = Seconds(1);
  // How long after a departure late packets are still forwarded.
  static constexpr Duration kForwardGrace = Seconds(10);
  // Maximum packets buffered per departing visitor (smooth hand-off).
  static constexpr size_t kMaxBufferedPackets = 64;

  ForeignAgent(Node& node, Config config);
  ~ForeignAgent();

  ForeignAgent(const ForeignAgent&) = delete;
  ForeignAgent& operator=(const ForeignAgent&) = delete;

  size_t visitor_count() const { return visitors_.size(); }
  bool HasVisitor(Ipv4Address home_address) const {
    return visitors_.find(home_address) != visitors_.end();
  }
  const Counters& counters() const { return counters_; }
  const Config& config() const { return config_; }

 private:
  struct Visitor {
    MacAddress mac;
    uint16_t reply_port = 0;  // Visitor's registration source port.
    Time registered_at;
  };
  struct ForwardEntry {
    Ipv4Address new_care_of;
    Time expires;
    // Packets held while the visitor's new care-of address is still unknown
    // (new_care_of == Any): the smooth-handoff buffer of inner wire images.
    std::vector<Packet> buffered;
  };

  void OnRegistrationTraffic(const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta);
  void RelayRequest(const RegistrationRequest& request, const UdpSocket::Metadata& meta);
  void RelayReply(const RegistrationReply& reply);
  void HandleBindingUpdate(const BindingUpdate& update);
  bool OnTunnelPacket(const Ipv4Header& outer, const Ipv4Header& inner,
                      const Packet& inner_wire);
  void SendAdvertisement();
  void DeliverToVisitor(const Visitor& visitor, const Packet& inner_wire);
  // Re-tunnels an inner wire image to a departed visitor's new care-of.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  void Retunnel(Packet inner_wire, Ipv4Address new_care_of);

  Node& node_;
  Config config_;
  std::unique_ptr<UdpSocket> socket_;
  std::unique_ptr<IpIpTunnelEndpoint> tunnel_;
  std::unique_ptr<PeriodicTask> advertiser_;
  std::map<Ipv4Address, Visitor> visitors_;
  std::map<Ipv4Address, ForwardEntry> forwards_;
  Counters counters_;
};

// Listens on a device for foreign-agent advertisements; used by a mobile
// host arriving on an unknown network before it has any IP address.
class AgentAdvertisementListener {
 public:
  using Handler = std::function<void(const AgentAdvertisement& adv, MacAddress fa_mac)>;

  AgentAdvertisementListener(Node& node, Handler handler);

 private:
  std::unique_ptr<UdpSocket> socket_;
  Handler handler_;
};

class MobileHost;

// Convenience: waits (up to `timeout`) for an agent advertisement on the
// device's network, then attaches through the discovered foreign agent.
// Calls done(false) if no advertisement is heard in time. The device must be
// up; no IP address is required.
void DiscoverAndAttachViaForeignAgent(MobileHost& mobile, NetDevice* device, Duration timeout,
                                      std::function<void(bool)> done);

}  // namespace msn

#endif  // MSN_SRC_MIP_FOREIGN_AGENT_H_
