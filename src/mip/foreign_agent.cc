#include "src/mip/foreign_agent.h"
#include "src/util/assert.h"

#include "src/mip/mobile_host.h"
#include "src/util/logging.h"

namespace msn {

ForeignAgent::ForeignAgent(Node& node, Config config) : node_(node), config_(config) {
  socket_ = std::make_unique<UdpSocket>(node_.stack());
  MSN_CHECK(socket_->Bind(kMipRegistrationPort)) << "fa registration port";
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        OnRegistrationTraffic(data, meta);
      });

  tunnel_ = std::make_unique<IpIpTunnelEndpoint>(node_.stack());
  tunnel_->SetInspector(
      [this](const Ipv4Header& outer, const Ipv4Header& inner, const Packet& inner_wire) {
        return OnTunnelPacket(outer, inner, inner_wire);
      });

  advertiser_ = std::make_unique<PeriodicTask>(node_.sim(), kAdvertisementInterval,
                                               [this] { SendAdvertisement(); });
  advertiser_->Start();
}

ForeignAgent::~ForeignAgent() = default;

void ForeignAgent::SendAdvertisement() {
  AgentAdvertisement adv;
  adv.agent_address = config_.address;
  adv.lifetime_sec = static_cast<uint16_t>(kAdvertisementInterval.nanos() / 1000000000 * 3);
  UdpSocket::SendExtras extras;
  extras.force_device = config_.device;
  extras.force_broadcast_mac = true;
  ++counters_.advertisements_sent;
  socket_->SendToWithExtras(Ipv4Address::Broadcast(), kMipRegistrationPort, adv.Serialize(),
                            extras);
}

void ForeignAgent::OnRegistrationTraffic(const std::vector<uint8_t>& data,
                                         const UdpSocket::Metadata& meta) {
  if (data.empty()) {
    return;
  }
  switch (static_cast<MipMessageType>(data[0])) {
    case MipMessageType::kRegistrationRequest: {
      auto request = RegistrationRequest::Parse(data);
      if (request) {
        RelayRequest(*request, meta);
      }
      return;
    }
    case MipMessageType::kRegistrationReply: {
      auto reply = RegistrationReply::Parse(data);
      if (reply) {
        RelayReply(*reply);
      }
      return;
    }
    case MipMessageType::kBindingUpdate: {
      auto update = BindingUpdate::Parse(data);
      if (update) {
        HandleBindingUpdate(*update);
      }
      return;
    }
    case MipMessageType::kAgentAdvertisement:
      return;  // Our own broadcast looping back via another FA; ignore.
  }
}

void ForeignAgent::RelayRequest(const RegistrationRequest& request,
                                const UdpSocket::Metadata& meta) {
  if (request.care_of_address != config_.address) {
    return;  // Not asking for our services.
  }
  if (meta.link_src.IsZero()) {
    return;  // Cannot learn the visitor's hardware address.
  }
  // Record (provisionally) the visitor; confirmed when the HA accepts.
  Visitor visitor;
  visitor.mac = meta.link_src;
  visitor.reply_port = meta.src_port;
  visitor.registered_at = node_.sim().Now();
  visitors_[request.home_address] = visitor;
  forwards_.erase(request.home_address);  // Back with us: stop forwarding.

  ++counters_.requests_relayed;
  MSN_DEBUG("mip-fa", "%s: relaying %s", node_.name().c_str(), request.ToString().c_str());
  socket_->SendTo(request.home_agent, kMipRegistrationPort, request.Serialize());
}

void ForeignAgent::RelayReply(const RegistrationReply& reply) {
  auto it = visitors_.find(reply.home_address);
  if (it == visitors_.end()) {
    return;
  }
  ++counters_.replies_relayed;
  // Frame the reply straight to the visitor's MAC: it has no routable
  // address on this network.
  IpStack::SendOptions opts;
  opts.force_device = config_.device;
  opts.force_dst_mac = it->second.mac;
  node_.stack().SendUdp(config_.address, reply.home_address, kMipRegistrationPort,
                        it->second.reply_port, reply.Serialize(), opts);
  // Denied: forget the visitor after relaying the reply.
  if (!reply.accepted()) {
    visitors_.erase(it);
  }
}

void ForeignAgent::HandleBindingUpdate(const BindingUpdate& update) {
  ++counters_.binding_updates_received;

  if (update.new_care_of.IsAny()) {
    // Smooth hand-off: the visitor announced its departure before knowing
    // its new care-of address. Buffer its packets until the home agent tells
    // us where it went.
    auto it = visitors_.find(update.home_address);
    if (it == visitors_.end() || !config_.forward_after_departure) {
      return;
    }
    MSN_INFO("mip-fa", "%s: visitor %s departing; buffering", node_.name().c_str(),
             update.home_address.ToString().c_str());
    visitors_.erase(it);
    ForwardEntry entry;
    entry.new_care_of = Ipv4Address::Any();
    entry.expires = node_.sim().Now() + kForwardGrace;
    forwards_[update.home_address] = std::move(entry);
    return;
  }

  // The binding moved. Flush any smooth-handoff buffer and forward late
  // packets for the grace period.
  visitors_.erase(update.home_address);
  if (!config_.forward_after_departure || update.new_care_of == config_.address) {
    forwards_.erase(update.home_address);
    return;
  }
  MSN_INFO("mip-fa", "%s: visitor %s moved to %s", node_.name().c_str(),
           update.home_address.ToString().c_str(), update.new_care_of.ToString().c_str());
  ForwardEntry& entry = forwards_[update.home_address];
  std::vector<Packet> buffered = std::move(entry.buffered);
  entry.buffered.clear();
  entry.new_care_of = update.new_care_of;
  entry.expires = node_.sim().Now() + Seconds(update.grace_sec);
  for (Packet& inner_wire : buffered) {
    ++counters_.packets_forwarded_after_departure;
    Retunnel(std::move(inner_wire), update.new_care_of);
  }
}

void ForeignAgent::DeliverToVisitor(const Visitor& visitor, const Packet& inner_wire) {
  EthernetFrame frame;
  frame.dst = visitor.mac;
  frame.src = config_.device->mac();
  frame.ethertype = EtherType::kIpv4;
  frame.payload = inner_wire;
  config_.device->Transmit(std::move(frame));
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void ForeignAgent::Retunnel(Packet inner_wire, Ipv4Address new_care_of) {
  Ipv4Header outer;
  Packet wire =
      EncapsulateIpIpPacket(outer, std::move(inner_wire), config_.address, new_care_of);
  node_.stack().SendPreformedPacket(outer, std::move(wire), /*forwarding=*/false);
}

bool ForeignAgent::OnTunnelPacket(const Ipv4Header& outer, const Ipv4Header& inner,
                                  const Packet& inner_wire) {
  (void)outer;
  // The inner wire image is a view of the tunnel packet; delivering and
  // buffering share that storage. Re-tunnelling a late packet here copies it
  // once, when the outer header is prepended, because the endpoint still
  // holds the received packet.
  auto visitor = visitors_.find(inner.dst);
  if (visitor != visitors_.end()) {
    ++counters_.packets_delivered;
    DeliverToVisitor(visitor->second, inner_wire);
    return false;  // Handled; do not re-inject.
  }
  auto forward = forwards_.find(inner.dst);
  if (forward != forwards_.end()) {
    if (forward->second.expires < node_.sim().Now()) {
      counters_.packets_buffer_dropped += forward->second.buffered.size();
      forwards_.erase(forward);
    } else if (forward->second.new_care_of.IsAny()) {
      // Departing visitor whose new location is still unknown: buffer.
      if (forward->second.buffered.size() < kMaxBufferedPackets) {
        ++counters_.packets_buffered;
        forward->second.buffered.push_back(inner_wire);
      } else {
        ++counters_.packets_buffer_dropped;
      }
      return false;
    } else {
      // Late packet for a departed visitor: re-tunnel to the new care-of
      // address (paper §5.1: "it can forward the packets to the mobile
      // host's new care-of address").
      ++counters_.packets_forwarded_after_departure;
      Retunnel(inner_wire, forward->second.new_care_of);
      return false;
    }
  }
  ++counters_.packets_dropped_unknown_visitor;
  return false;  // Tunnel packets at an FA never re-inject locally.
}

void DiscoverAndAttachViaForeignAgent(MobileHost& mobile, NetDevice* device, Duration timeout,
                                      std::function<void(bool)> done) {
  // Shared discovery state, alive until a decision is made.
  struct Discovery {
    std::unique_ptr<AgentAdvertisementListener> listener;
    bool decided = false;
  };
  auto state = std::make_shared<Discovery>();
  Simulator& sim = mobile.node().sim();

  state->listener = std::make_unique<AgentAdvertisementListener>(
      mobile.node(),
      [state, &mobile, device, done](const AgentAdvertisement& adv, MacAddress fa_mac) {
        (void)fa_mac;
        if (state->decided) {
          return;
        }
        state->decided = true;
        MSN_INFO("mip-mh", "%s: discovered foreign agent %s", mobile.node().name().c_str(),
                 adv.agent_address.ToString().c_str());
        mobile.AttachViaForeignAgent(device, adv.agent_address, done);
        // Destroy the listener outside its own callback.
        mobile.node().sim().Schedule(Duration(), [state] { state->listener.reset(); });
      });

  sim.Schedule(timeout, [state, done] {
    if (state->decided) {
      return;
    }
    state->decided = true;
    state->listener.reset();
    if (done) {
      done(false);
    }
  });
}

AgentAdvertisementListener::AgentAdvertisementListener(Node& node, Handler handler)
    : handler_(std::move(handler)) {
  socket_ = std::make_unique<UdpSocket>(node.stack());
  MSN_CHECK(socket_->Bind(kMipRegistrationPort)) << "fa relay registration port";
  socket_->SetReceiveHandler(
      [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
        auto adv = AgentAdvertisement::Parse(data);
        if (adv && handler_) {
          handler_(*adv, meta.link_src);
        }
      });
}

}  // namespace msn
