#include "src/node/ip_stack.h"

#include <algorithm>
#include <utility>

#include "src/link/net_device.h"
#include "src/net/checksum.h"
#include "src/node/udp.h"
#include "src/util/assert.h"
#include "src/util/byte_buffer.h"
#include "src/util/logging.h"

namespace msn {

namespace {

// Inline dispatch for internal zero-delay pipeline stages. When the stage
// completes at the current instant and nothing else is due at this instant,
// the scheduled continuation would be the very next event popped — running it
// inline is order-identical and skips the event-queue round trip, which is
// most of the per-packet cost in calibration-free runs. Any same-time event
// pending, or any nonzero delay, falls back to the scheduler. Never used for
// the first SendDatagram stage: applications observe that asynchrony.
template <typename Fn>
void DispatchStage(Simulator& sim, Time fire, Fn&& fn) {
  if (fire == sim.Now() && sim.NextEventTime() > sim.Now()) {
    std::forward<Fn>(fn)();
    return;
  }
  sim.ScheduleAt(fire, std::forward<Fn>(fn));
}

}  // namespace

IpStack::IpStack(Simulator& sim, std::string node_name, MetricsRegistry* metrics)
    : sim_(sim), node_name_(std::move(node_name)),
      arp_(std::make_unique<ArpService>(sim, *this)),
      reassembly_(std::make_unique<ReassemblyService>(sim)), metrics_(metrics) {
  if (metrics_ == nullptr) {
    return;
  }
  const std::string prefix = "ip." + node_name_ + ".";
  metrics_->BindCounter(prefix + "datagrams_sent", &counters_.datagrams_sent);
  metrics_->BindCounter(prefix + "datagrams_delivered", &counters_.datagrams_delivered);
  metrics_->BindCounter(prefix + "datagrams_forwarded", &counters_.datagrams_forwarded);
  metrics_->BindCounter(prefix + "drop_no_route", &counters_.drop_no_route);
  metrics_->BindCounter(prefix + "drop_arp_failure", &counters_.drop_arp_failure);
  metrics_->BindCounter(prefix + "drop_ttl", &counters_.drop_ttl);
  metrics_->BindCounter(prefix + "drop_filtered", &counters_.drop_filtered);
  metrics_->BindCounter(prefix + "drop_no_handler", &counters_.drop_no_handler);
  metrics_->BindCounter(prefix + "drop_bad_packet", &counters_.drop_bad_packet);
  metrics_->BindCounter(prefix + "drop_device", &counters_.drop_device);
  metrics_->BindCounter(prefix + "drop_not_for_us", &counters_.drop_not_for_us);
  metrics_->BindCounter(prefix + "icmp_echo_replies_sent", &counters_.icmp_echo_replies_sent);
  metrics_->BindCounter(prefix + "icmp_errors_sent", &counters_.icmp_errors_sent);
  metrics_->BindCounter(prefix + "icmp_redirects_sent", &counters_.icmp_redirects_sent);
  metrics_->BindCounter(prefix + "icmp_redirects_accepted", &counters_.icmp_redirects_accepted);
  metrics_->BindCounter(prefix + "fragments_sent", &counters_.fragments_sent);
  metrics_->BindCounter(prefix + "drop_fragmentation_needed",
                        &counters_.drop_fragmentation_needed);
}

IpStack::~IpStack() {
  if (metrics_ != nullptr) {
    metrics_->ReleaseCounters(counters_);
  }
}

// --- Interfaces ---------------------------------------------------------------

void IpStack::AddInterface(NetDevice* device) {
  if (FindInterface(device) != nullptr) {
    return;
  }
  interfaces_.push_back(InterfaceEntry{device, Ipv4Address::Any(), SubnetMask(0), false});
  device->SetReceiveHandler([this](NetDevice& dev, EthernetFrame&& frame) {
    ReceiveFrame(dev, std::move(frame));
  });
}

IpStack::InterfaceEntry* IpStack::FindInterface(NetDevice* device) {
  for (InterfaceEntry& e : interfaces_) {
    if (e.device == device) {
      return &e;
    }
  }
  return nullptr;
}

const IpStack::InterfaceEntry* IpStack::FindInterface(NetDevice* device) const {
  for (const InterfaceEntry& e : interfaces_) {
    if (e.device == device) {
      return &e;
    }
  }
  return nullptr;
}

void IpStack::ConfigureAddress(NetDevice* device, Ipv4Address addr, SubnetMask mask) {
  InterfaceEntry* entry = FindInterface(device);
  if (entry == nullptr) {
    AddInterface(device);
    entry = FindInterface(device);
  }
  if (entry->configured) {
    routes_.Remove(Subnet(entry->addr, entry->mask), device);
  }
  entry->addr = addr;
  entry->mask = mask;
  entry->configured = true;
  // The connected-subnet route, as ifconfig installs.
  routes_.Add(RouteEntry{Subnet(addr, mask), Ipv4Address::Any(), device, addr, 0});
  MSN_DEBUG("ip", "%s: %s configured %s/%d", node_name_.c_str(), device->name().c_str(),
            addr.ToString().c_str(), mask.prefix_len());
}

void IpStack::UnconfigureAddress(NetDevice* device) {
  InterfaceEntry* entry = FindInterface(device);
  if (entry == nullptr || !entry->configured) {
    return;
  }
  routes_.Remove(Subnet(entry->addr, entry->mask), device);
  entry->addr = Ipv4Address::Any();
  entry->mask = SubnetMask(0);
  entry->configured = false;
}

std::optional<Ipv4Address> IpStack::GetInterfaceAddress(NetDevice* device) const {
  const InterfaceEntry* entry = FindInterface(device);
  if (entry == nullptr || !entry->configured) {
    return std::nullopt;
  }
  return entry->addr;
}

std::optional<Subnet> IpStack::GetInterfaceSubnet(NetDevice* device) const {
  const InterfaceEntry* entry = FindInterface(device);
  if (entry == nullptr || !entry->configured) {
    return std::nullopt;
  }
  return Subnet(entry->addr, entry->mask);
}

bool IpStack::IsLocalAddress(Ipv4Address addr) const {
  for (const InterfaceEntry& e : interfaces_) {
    if (e.configured && e.addr == addr) {
      return true;
    }
  }
  return false;
}

std::vector<NetDevice*> IpStack::Interfaces() const {
  std::vector<NetDevice*> out;
  out.reserve(interfaces_.size());
  for (const InterfaceEntry& e : interfaces_) {
    out.push_back(e.device);
  }
  return out;
}

bool IpStack::IsBroadcastFor(Ipv4Address addr) const {
  if (addr.IsBroadcast()) {
    return true;
  }
  for (const InterfaceEntry& e : interfaces_) {
    if (e.configured && Subnet(e.addr, e.mask).BroadcastAddress() == addr &&
        e.mask.prefix_len() < 32) {
      return true;
    }
  }
  return false;
}

// --- Routing -------------------------------------------------------------------

std::optional<RouteDecision> IpStack::RouteLookup(const RouteQuery& query) {
  // The mobility hook: the paper's enhanced ip_rt_route() consults the Mobile
  // Policy Table first and falls through to the normal table.
  if (route_override_) {
    if (auto decision = route_override_(query)) {
      if (!decision->defer_to_table) {
        return decision;
      }
      // kDirect local role: the forwarding answer comes from the normal
      // table below.
    }
  }
  auto entry = routes_.Lookup(query.dst);
  if (!entry) {
    return std::nullopt;
  }
  RouteDecision decision;
  decision.device = entry->device;
  decision.next_hop = entry->gateway;
  if (!query.src_hint.IsAny()) {
    decision.src = query.src_hint;
  } else if (!entry->pref_src.IsAny()) {
    decision.src = entry->pref_src;
  } else {
    decision.src = GetInterfaceAddress(entry->device).value_or(Ipv4Address::Any());
  }
  return decision;
}

std::optional<RouteDecision> IpStack::RouteLookupUncached(const RouteQuery& query) {
  RouteQuery advisory = query;
  advisory.advisory = true;
  return RouteLookup(advisory);
}

// --- Delay model ------------------------------------------------------------------

Duration IpStack::DrawDelay(Duration mean, Duration jitter) {
  if (mean.nanos() <= 0) {
    return Duration();
  }
  const double ns = sim_.rng().NormalAtLeast(static_cast<double>(mean.nanos()),
                                             static_cast<double>(jitter.nanos()),
                                             static_cast<double>(mean.nanos()) * 0.25);
  return Duration::FromNanos(static_cast<int64_t>(ns));
}

Time IpStack::PipelineDelay(Time& busy_until, Duration mean, Duration jitter) {
  const Time start = std::max(sim_.Now(), busy_until);
  const Time done = start + DrawDelay(mean, jitter);
  busy_until = done;
  return done;
}

// --- Send path -----------------------------------------------------------------

void IpStack::SendDatagram(Ipv4Address src, Ipv4Address dst, IpProto proto,
                           std::vector<uint8_t> payload, SendOptions opts) {
  Ipv4Header header;
  header.src = src;
  header.dst = dst;
  header.protocol = proto;
  header.ttl = opts.ttl;
  header.identification = next_ip_id_++;
  // The wire image is built exactly once here; every later stage (routing,
  // queueing, transmission, forwarding at each hop) shares or patches it.
  Packet wire = BuildIpv4Packet(header, payload);
  ++counters_.datagrams_sent;
  const Time fire = PipelineDelay(send_pipe_busy_, delays_.send_mean, delays_.send_jitter);
  sim_.ScheduleAt(fire, [this, header, wire = std::move(wire), opts]() mutable {
    DoSend(header, std::move(wire), /*forwarding=*/false, opts);
  });
}

void IpStack::SendDatagram(Ipv4Address src, Ipv4Address dst, IpProto proto,
                           std::vector<uint8_t> payload) {
  SendDatagram(src, dst, proto, std::move(payload), SendOptions{});
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void IpStack::SendPreformedPacket(const Ipv4Header& header, Packet wire, bool forwarding) {
  MSN_ASSERT(header.total_length == wire.size())
      << "preformed packet wire/header length mismatch";
  DoSend(header, std::move(wire), forwarding, SendOptions{});
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void IpStack::DoSend(Ipv4Header header, Packet wire, bool forwarding, SendOptions opts) {
  const Ipv4Address dst = header.dst;

  if (opts.force_device != nullptr) {
    TransmitViaDevice(opts.force_device, header, std::move(wire), dst, opts.force_dst_mac);
    return;
  }

  // Packets to one of our own addresses short-circuit to local delivery.
  if (IsLocalAddress(dst) || dst.IsLoopback()) {
    const Time fire =
        PipelineDelay(deliver_pipe_busy_, delays_.deliver_mean, delays_.deliver_jitter);
    wire.StripFront(Ipv4Header::kSize);
    sim_.ScheduleAt(fire, [this, header, payload = std::move(wire)]() mutable {
      Deliver(header, std::move(payload), nullptr, MacAddress::Zero());
    });
    return;
  }

  RouteQuery query{dst, header.src, forwarding};
  auto decision = RouteLookup(query);
  if (!decision || decision->device == nullptr) {
    ++counters_.drop_no_route;
    MSN_DEBUG("ip", "%s: no route to %s", node_name_.c_str(), dst.ToString().c_str());
    return;
  }
  if (!forwarding && header.src.IsAny()) {
    header.src = decision->src;
    if (header.src.IsAny() && !opts.allow_unconfigured_source) {
      ++counters_.drop_no_route;
      return;
    }
    // Source selection changed the header: rewrite the wire image in place
    // (the buffer is unshared this early, so no copy happens).
    header.SerializeTo(wire.MutableData());
  }
  TransmitViaDevice(decision->device, header, std::move(wire),
                    decision->EffectiveNextHop(dst), opts.force_dst_mac);
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void IpStack::TransmitViaDevice(NetDevice* device, const Ipv4Header& header, Packet wire,
                                Ipv4Address next_hop,
                                std::optional<MacAddress> force_dst_mac) {
  if (device == nullptr) {
    ++counters_.drop_device;
    return;
  }

  // The MAC is usually known synchronously (forced, broadcast, loopback, or
  // an ARP cache hit); resolving it first keeps the common single-packet
  // path free of both the pieces vector and the std::function callback that
  // ArpService::Resolve would otherwise materialize on every forwarded
  // packet.
  const std::optional<MacAddress> fast_mac =
      ResolveDstMacFast(device, next_hop, force_dst_mac);

  // Fragment datagrams exceeding the egress MTU; with DF set, drop and
  // signal path-MTU discovery instead. Fragmentation is the one egress path
  // that still materializes owned copies; it is rare and off the fast path.
  if (wire.size() > device->mtu()) {
    if (header.dont_fragment) {
      ++counters_.drop_fragmentation_needed;
      SendIcmpError(header, wire.span().subspan(Ipv4Header::kSize),
                    IcmpUnreachableCode::kFragmentationNeeded);
      return;
    }
    Ipv4Datagram dg;
    dg.header = header;
    dg.payload.assign(wire.begin() + Ipv4Header::kSize, wire.end());
    std::vector<Packet> pieces;
    for (const Ipv4Datagram& piece : FragmentDatagram(dg, device->mtu())) {
      Ipv4Header piece_header = piece.header;
      pieces.push_back(BuildIpv4Packet(piece_header, piece.payload));
    }
    counters_.fragments_sent += pieces.size();
    if (fast_mac.has_value()) {
      for (Packet& piece : pieces) {
        TransmitFrame(device, std::move(piece), *fast_mac);
      }
      return;
    }
    arp_->Resolve(device, next_hop,
                  [this, device, pieces = std::move(pieces)](
                      std::optional<MacAddress> mac) mutable {
                    if (!mac) {
                      ++counters_.drop_arp_failure;
                      return;
                    }
                    for (Packet& piece : pieces) {
                      TransmitFrame(device, std::move(piece), *mac);
                    }
                  });
    return;
  }

  if (fast_mac.has_value()) {
    TransmitFrame(device, std::move(wire), *fast_mac);
    return;
  }
  arp_->Resolve(device, next_hop,
                [this, device, wire = std::move(wire)](std::optional<MacAddress> mac) mutable {
                  if (!mac) {
                    ++counters_.drop_arp_failure;
                    return;
                  }
                  TransmitFrame(device, std::move(wire), *mac);
                });
}

std::optional<MacAddress> IpStack::ResolveDstMacFast(NetDevice* device, Ipv4Address next_hop,
                                                     std::optional<MacAddress> force_dst_mac) {
  if (force_dst_mac.has_value()) {
    return force_dst_mac;
  }
  if (next_hop.IsBroadcast() || IsBroadcastFor(next_hop)) {
    return MacAddress::Broadcast();
  }
  if (device->bandwidth_bps() == 0 && device->mac().IsZero()) {
    // Loopback-style device: no link addressing.
    return MacAddress::Zero();
  }
  return arp_->CachedLookup(next_hop);
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void IpStack::TransmitFrame(NetDevice* device, Packet wire, MacAddress dst_mac) {
  EthernetFrame frame;
  frame.dst = dst_mac;
  frame.src = device->mac();
  frame.ethertype = EtherType::kIpv4;
  frame.payload = std::move(wire);
  if (!device->Transmit(std::move(frame))) {
    ++counters_.drop_device;
  }
}

// --- Receive path ---------------------------------------------------------------

void IpStack::ReceiveFrame(NetDevice& device, EthernetFrame&& frame) {
  switch (frame.ethertype) {
    case EtherType::kArp:
      arp_->HandleFrame(&device, frame);
      return;
    case EtherType::kIpv4:
      HandleIpv4Frame(device, std::move(frame));
      return;
  }
}

void IpStack::HandleIpv4Frame(NetDevice& device, EthernetFrame&& frame) {
  // Parse (and checksum-verify) the header only; the frame's buffer itself
  // flows onward. Taking the payload by move matters: when nothing else
  // holds the frame (plain unicast, no tap), the wire image reaches Forward
  // uniquely owned and the TTL patch needs no copy at all.
  ByteReader r(frame.payload.data(), frame.payload.size());
  auto header = Ipv4Header::Parse(r);
  if (!header || header->total_length < Ipv4Header::kSize ||
      header->total_length > frame.payload.size()) {
    ++counters_.drop_bad_packet;
    return;
  }
  Packet wire = std::move(frame.payload);
  wire.TrimTo(header->total_length);
  InjectReceivedPacket(*header, std::move(wire), &device, frame.src);
}

void IpStack::InjectReceivedDatagram(const Ipv4Datagram& dg, NetDevice* ingress,
                                     MacAddress link_src) {
  Ipv4Header header = dg.header;
  Packet wire = BuildIpv4Packet(header, dg.payload);
  InjectReceivedPacket(header, std::move(wire), ingress, link_src);
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void IpStack::InjectReceivedPacket(const Ipv4Header& header, Packet wire, NetDevice* ingress,
                                   MacAddress link_src) {
  const Ipv4Address dst = header.dst;
  if (IsLocalAddress(dst) || dst.IsBroadcast() || IsBroadcastFor(dst) || dst.IsLoopback()) {
    if (header.IsFragment()) {
      // Reassemble fragments destined to us; forwarded fragments pass
      // through untouched (routers do not reassemble). Reassembly owns its
      // bytes, so fragments drop out of the zero-copy path here.
      Ipv4Datagram fragment;
      fragment.header = header;
      fragment.payload.assign(wire.begin() + Ipv4Header::kSize, wire.end());
      std::optional<Ipv4Datagram> whole = reassembly_->Add(fragment);
      if (!whole.has_value()) {
        return;  // Waiting for more fragments.
      }
      const Time fire =
          PipelineDelay(deliver_pipe_busy_, delays_.deliver_mean, delays_.deliver_jitter);
      DispatchStage(sim_, fire,
                    [this, whole_header = whole->header,
                     payload = Packet(std::move(whole->payload)), ingress, link_src]() mutable {
                      Deliver(whole_header, std::move(payload), ingress, link_src);
                    });
      return;
    }
    // Non-fragments skip reassembly entirely (Add returns them unchanged)
    // and deliver the wire image itself, the IP header stripped in place, so
    // the payload reaches its handler as the only reference.
    const Time fire =
        PipelineDelay(deliver_pipe_busy_, delays_.deliver_mean, delays_.deliver_jitter);
    wire.StripFront(Ipv4Header::kSize);
    DispatchStage(sim_, fire,
                  [this, header, payload = std::move(wire), ingress, link_src]() mutable {
                    Deliver(header, std::move(payload), ingress, link_src);
                  });
    return;
  }
  if (forwarding_enabled_) {
    Forward(header, std::move(wire), ingress);
    return;
  }
  ++counters_.drop_not_for_us;
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void IpStack::Forward(Ipv4Header header, Packet wire, NetDevice* ingress) {
  if (header.ttl <= 1) {
    ++counters_.drop_ttl;
    return;
  }
  header.ttl -= 1;
  {
    // Patch TTL and checksum in the wire image via the RFC 1624 incremental
    // update: the per-hop cost is four byte writes, not a reserialization.
    // MutableData copies first iff the buffer is shared (duplicate in
    // flight, pcap tap holding the frame) — exactly when a private copy is
    // semantically required.
    uint8_t* b = wire.MutableData();
    const uint16_t old_word = static_cast<uint16_t>((static_cast<uint16_t>(b[8]) << 8) | b[9]);
    b[8] = header.ttl;
    const uint16_t new_word = static_cast<uint16_t>((static_cast<uint16_t>(b[8]) << 8) | b[9]);
    const uint16_t old_sum =
        static_cast<uint16_t>((static_cast<uint16_t>(b[10]) << 8) | b[11]);
    const uint16_t new_sum = IncrementalChecksumUpdate(old_sum, old_word, new_word);
    b[10] = static_cast<uint8_t>(new_sum >> 8);
    b[11] = static_cast<uint8_t>(new_sum & 0xff);
  }
  if (forward_filter_ && !forward_filter_(header, ingress)) {
    // Transit-traffic filtering: the security-conscious-router behaviour that
    // breaks the triangle-route optimization (paper §3.2).
    ++counters_.drop_filtered;
    MSN_DEBUG("ip", "%s: filtered transit packet %s", node_name_.c_str(),
              header.ToString().c_str());
    SendIcmpError(header, wire.span().subspan(Ipv4Header::kSize),
                  IcmpUnreachableCode::kAdminProhibited);
    return;
  }
  // RFC 792 redirect: if we would forward this packet back out its arrival
  // interface toward a gateway on the sender's own subnet, tell the sender
  // about the shorter path (and still forward the packet).
  if (send_redirects_ && ingress != nullptr) {
    RouteQuery query{header.dst, header.src, /*forwarding=*/true, /*advisory=*/true};
    if (auto decision = RouteLookup(query)) {
      const auto ingress_subnet = GetInterfaceSubnet(ingress);
      if (decision->device == ingress && ingress_subnet &&
          ingress_subnet->Contains(header.src)) {
        const Ipv4Address better_hop = decision->EffectiveNextHop(header.dst);
        IcmpMessage redirect;
        redirect.type = IcmpType::kRedirect;
        redirect.code = 1;  // Redirect for host.
        redirect.rest = better_hop.value();
        ByteWriter w;
        header.Serialize(w);
        const std::span<const uint8_t> payload = wire.span().subspan(Ipv4Header::kSize);
        const size_t copy = std::min<size_t>(8, payload.size());
        w.WriteBytes(payload.data(), copy);
        redirect.payload = w.Take();
        ++counters_.icmp_redirects_sent;
        SendIcmp(header.src, redirect,
                 GetInterfaceAddress(ingress).value_or(Ipv4Address::Any()));
      }
    }
  }

  ++counters_.datagrams_forwarded;
  const Time fire =
      PipelineDelay(forward_pipe_busy_, delays_.forward_mean, delays_.forward_jitter);
  DispatchStage(sim_, fire, [this, header, wire = std::move(wire)]() mutable {
    DoSend(header, std::move(wire), /*forwarding=*/true, SendOptions{});
  });
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
void IpStack::Deliver(const Ipv4Header& header, Packet payload, NetDevice* ingress,
                      MacAddress link_src) {
  ++counters_.datagrams_delivered;
  switch (header.protocol) {
    case IpProto::kIcmp:
      HandleIcmp(header, payload, ingress);
      return;
    case IpProto::kUdp:
      HandleUdp(header, payload, ingress, link_src);
      return;
    default:
      break;
  }
  auto it = protocol_handlers_.find(header.protocol);
  if (it != protocol_handlers_.end()) {
    it->second(header, std::move(payload), ingress);
    return;
  }
  ++counters_.drop_no_handler;
}

void IpStack::RegisterProtocolHandler(IpProto proto, ProtocolHandler handler) {
  protocol_handlers_[proto] = std::move(handler);
}

void IpStack::UnregisterProtocolHandler(IpProto proto) { protocol_handlers_.erase(proto); }

// --- ICMP -----------------------------------------------------------------------

void IpStack::HandleIcmp(const Ipv4Header& header, const Packet& payload,
                         NetDevice* ingress) {
  (void)ingress;
  auto msg = IcmpMessage::Parse(payload.span());
  if (!msg) {
    ++counters_.drop_bad_packet;
    return;
  }
  switch (msg->type) {
    case IcmpType::kEchoRequest: {
      // Answer with the address the request was sent to, so replies to the
      // home address remain subject to mobile-IP policy on a mobile host.
      IcmpMessage reply;
      reply.type = IcmpType::kEchoReply;
      reply.code = 0;
      reply.rest = msg->rest;
      reply.payload = msg->payload;
      ++counters_.icmp_echo_replies_sent;
      SendIcmp(header.src, reply, header.dst);
      return;
    }
    case IcmpType::kEchoReply: {
      auto it = echo_listeners_.find(msg->echo_id());
      if (it != echo_listeners_.end()) {
        it->second(header, *msg);
      }
      return;
    }
    case IcmpType::kRedirect: {
      if (!accept_redirects_) {
        return;
      }
      ByteReader r(msg->payload);
      auto offending = Ipv4Header::Parse(r);
      if (!offending) {
        return;
      }
      const Ipv4Address better_hop(msg->rest);
      // The redirect must come from the gateway we are currently using, and
      // the new hop must be on a directly connected subnet.
      RouteQuery query{offending->dst, Ipv4Address::Any(), /*forwarding=*/false,
                       /*advisory=*/true};
      auto current = RouteLookup(query);
      if (!current || current->EffectiveNextHop(offending->dst) != header.src) {
        return;
      }
      const auto subnet = GetInterfaceSubnet(current->device);
      if (!subnet || !subnet->Contains(better_hop)) {
        return;
      }
      routes_.Add(RouteEntry{Subnet(offending->dst, SubnetMask(32)), better_hop,
                             current->device, Ipv4Address::Any(), 0});
      ++counters_.icmp_redirects_accepted;
      MSN_DEBUG("ip", "%s: redirect %s via %s", node_name_.c_str(),
                offending->dst.ToString().c_str(), better_hop.ToString().c_str());
      return;
    }
    case IcmpType::kDestinationUnreachable: {
      // Extract the offending packet's header from the ICMP payload.
      ByteReader r(msg->payload);
      auto offending = Ipv4Header::Parse(r);
      if (offending) {
        if (icmp_error_handler_) {
          icmp_error_handler_(*msg, *offending);
        }
        // If the offending packet was one of our echo requests, tell the
        // pinger: this is how the mobile host learns a triangle-route probe
        // was administratively filtered.
        if (offending->protocol == IpProto::kIcmp && r.remaining() >= 8) {
          r.Skip(4);  // Inner ICMP type, code, checksum.
          const uint16_t echo_id = r.ReadU16();
          auto it = echo_listeners_.find(echo_id);
          if (it != echo_listeners_.end()) {
            it->second(header, *msg);
          }
        }
      }
      return;
    }
  }
}

void IpStack::SendIcmp(Ipv4Address dst, const IcmpMessage& msg, Ipv4Address src) {
  SendDatagram(src, dst, IpProto::kIcmp, msg.Serialize());
}

void IpStack::SendIcmpError(const Ipv4Header& offending, std::span<const uint8_t> payload,
                            IcmpUnreachableCode code) {
  if (offending.protocol == IpProto::kIcmp) {
    // Avoid error storms: only report errors for echo requests, never for
    // other ICMP messages.
    auto inner = IcmpMessage::Parse(payload);
    if (!inner || inner->type != IcmpType::kEchoRequest) {
      return;
    }
  }
  IcmpMessage err;
  err.type = IcmpType::kDestinationUnreachable;
  err.code = static_cast<uint8_t>(code);
  err.rest = 0;
  // RFC 792: the offending IP header plus the first 8 payload bytes.
  ByteWriter w;
  offending.Serialize(w);
  const size_t copy = std::min<size_t>(8, payload.size());
  if (copy > 0) {
    w.WriteBytes(payload.data(), copy);
  }
  err.payload = w.Take();
  ++counters_.icmp_errors_sent;
  SendIcmp(offending.src, err);
}

void IpStack::RegisterEchoListener(
    uint16_t id, std::function<void(const Ipv4Header&, const IcmpMessage&)> cb) {
  echo_listeners_[id] = std::move(cb);
}

void IpStack::UnregisterEchoListener(uint16_t id) { echo_listeners_.erase(id); }

// --- UDP ------------------------------------------------------------------------

void IpStack::HandleUdp(const Ipv4Header& header, const Packet& payload, NetDevice* ingress,
                        MacAddress link_src) {
  auto dg = UdpDatagram::Parse(payload.span(), header.src, header.dst);
  if (!dg) {
    ++counters_.drop_bad_packet;
    return;
  }
  auto it = udp_sockets_.find(dg->dst_port);
  if (it == udp_sockets_.end() || it->second.empty()) {
    if (!header.dst.IsBroadcast() && !IsBroadcastFor(header.dst)) {
      SendIcmpError(header, payload.span(), IcmpUnreachableCode::kPortUnreachable);
    }
    return;
  }
  DispatchUdp(it->second, header, *dg, ingress, link_src);
}

void IpStack::DispatchUdp(const std::vector<UdpSocket*>& sockets, const Ipv4Header& header,
                          const UdpDatagram& dg, NetDevice* ingress, MacAddress link_src) {
  UdpSocket::Metadata meta;
  meta.src = header.src;
  meta.src_port = dg.src_port;
  meta.dst = header.dst;
  meta.ingress = ingress;
  meta.link_src = link_src;

  const bool broadcast = header.dst.IsBroadcast() || IsBroadcastFor(header.dst);
  if (broadcast) {
    // Broadcasts reach every socket on the port (DHCP relies on this).
    for (UdpSocket* socket : sockets) {
      socket->Deliver(dg.payload, meta);
    }
    return;
  }
  // Unicast: prefer a socket bound to exactly this destination address, then
  // fall back to an unbound (wildcard) socket.
  UdpSocket* exact = nullptr;
  UdpSocket* wildcard = nullptr;
  for (UdpSocket* socket : sockets) {
    if (socket->bound_source() == header.dst) {
      exact = socket;
      break;
    }
    if (socket->bound_source().IsAny() && wildcard == nullptr) {
      wildcard = socket;
    }
  }
  UdpSocket* chosen = exact != nullptr ? exact : wildcard;
  if (chosen != nullptr) {
    chosen->Deliver(dg.payload, meta);
  }
}

bool IpStack::BindUdpSocket(uint16_t port, UdpSocket* socket) {
  auto& list = udp_sockets_[port];
  if (std::find(list.begin(), list.end(), socket) != list.end()) {
    return true;
  }
  list.push_back(socket);
  return true;
}

void IpStack::UnbindUdpSocket(uint16_t port, UdpSocket* socket) {
  auto it = udp_sockets_.find(port);
  if (it == udp_sockets_.end()) {
    return;
  }
  auto& list = it->second;
  list.erase(std::remove(list.begin(), list.end(), socket), list.end());
  if (list.empty()) {
    udp_sockets_.erase(it);
  }
}

uint16_t IpStack::AllocateEphemeralPort() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const uint16_t port = next_ephemeral_port_;
    next_ephemeral_port_ = next_ephemeral_port_ == 65535 ? 49152 : next_ephemeral_port_ + 1;
    if (udp_sockets_.find(port) == udp_sockets_.end()) {
      return port;
    }
  }
  return 0;
}

}  // namespace msn
