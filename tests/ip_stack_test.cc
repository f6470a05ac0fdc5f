// Unit tests for the host IP stack: send/receive pipelines, ARP, forwarding,
// transit filtering, ICMP, UDP sockets, and the route-lookup override hook.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/node/icmp.h"
#include "src/node/node.h"
#include "src/node/udp.h"
#include "src/sim/simulator.h"

namespace msn {
namespace {

// Two hosts and a router on two segments:
//   a (10.0.0.2) --- seg0 --- router (10.0.0.1 / 10.0.1.1) --- seg1 --- b (10.0.1.2)
class StackFixture : public ::testing::Test {
 protected:
  StackFixture()
      : sim_(99),
        seg0_(sim_, "seg0", EthernetMediumParams()),
        seg1_(sim_, "seg1", EthernetMediumParams()),
        a_(sim_, "a"),
        b_(sim_, "b"),
        router_(sim_, "router") {
    a_dev_ = a_.AddEthernet("eth0", &seg0_);
    b_dev_ = b_.AddEthernet("eth0", &seg1_);
    r0_ = router_.AddEthernet("eth0", &seg0_);
    r1_ = router_.AddEthernet("eth1", &seg1_);
    for (NetDevice* dev :
         {static_cast<NetDevice*>(a_dev_), static_cast<NetDevice*>(b_dev_),
          static_cast<NetDevice*>(r0_), static_cast<NetDevice*>(r1_)}) {
      dev->ForceUp();
    }
    a_.ConfigureInterface(a_dev_, "10.0.0.2/24");
    b_.ConfigureInterface(b_dev_, "10.0.1.2/24");
    router_.ConfigureInterface(r0_, "10.0.0.1/24");
    router_.ConfigureInterface(r1_, "10.0.1.1/24");
    a_.AddDefaultRoute(Ipv4Address(10, 0, 0, 1), a_dev_);
    b_.AddDefaultRoute(Ipv4Address(10, 0, 1, 1), b_dev_);
    router_.stack().set_forwarding_enabled(true);
  }

  Simulator sim_;
  BroadcastMedium seg0_, seg1_;
  Node a_, b_, router_;
  EthernetDevice* a_dev_;
  EthernetDevice* b_dev_;
  EthernetDevice* r0_;
  EthernetDevice* r1_;
};

TEST_F(StackFixture, OnLinkDeliveryWithArp) {
  Node c(sim_, "c");
  EthernetDevice* c_dev = c.AddEthernet("eth0", &seg0_);
  c_dev->ForceUp();
  c.ConfigureInterface(c_dev, "10.0.0.3/24");

  std::vector<uint8_t> got;
  c.stack().RegisterProtocolHandler(
      IpProto::kTcp, [&](const Ipv4Header& h, const Packet& payload, NetDevice*) {
        EXPECT_EQ(h.src, Ipv4Address(10, 0, 0, 2));
        got = payload.ToVector();
      });
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(10, 0, 0, 3), IpProto::kTcp,
                          {1, 2, 3});
  sim_.Run();
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 2, 3}));
  // ARP was exercised exactly once.
  EXPECT_EQ(a_.stack().arp().counters().requests_sent, 1u);
  EXPECT_TRUE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 3)).has_value());
}

TEST_F(StackFixture, ForwardingAcrossRouter) {
  int delivered = 0;
  b_.stack().RegisterProtocolHandler(
      IpProto::kTcp, [&](const Ipv4Header& h, const Packet&, NetDevice*) {
        ++delivered;
        EXPECT_EQ(h.ttl, Ipv4Header::kDefaultTtl - 1);  // One hop.
      });
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(10, 0, 1, 2), IpProto::kTcp, {9});
  sim_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(router_.stack().counters().datagrams_forwarded, 1u);
}

TEST_F(StackFixture, ForwardingDisabledDrops) {
  router_.stack().set_forwarding_enabled(false);
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(10, 0, 1, 2), IpProto::kTcp, {9});
  sim_.Run();
  EXPECT_EQ(router_.stack().counters().drop_not_for_us, 1u);
  EXPECT_EQ(b_.stack().counters().datagrams_delivered, 0u);
}

TEST_F(StackFixture, TtlExpiryDropsPacket) {
  IpStack::SendOptions opts;
  opts.ttl = 1;
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(10, 0, 1, 2), IpProto::kTcp, {9},
                          opts);
  sim_.Run();
  EXPECT_EQ(router_.stack().counters().drop_ttl, 1u);
  EXPECT_EQ(b_.stack().counters().datagrams_delivered, 0u);
}

TEST_F(StackFixture, NoRouteCounted) {
  a_.stack().routes().Clear();
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(99, 9, 9, 9), IpProto::kTcp, {1});
  sim_.Run();
  EXPECT_EQ(a_.stack().counters().drop_no_route, 1u);
}

TEST_F(StackFixture, ArpFailureCounted) {
  // 10.0.0.77 does not exist: three requests then failure.
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(10, 0, 0, 77), IpProto::kTcp, {1});
  sim_.Run();
  EXPECT_EQ(a_.stack().counters().drop_arp_failure, 1u);
  EXPECT_EQ(a_.stack().arp().counters().requests_sent, 3u);
  EXPECT_EQ(a_.stack().arp().counters().resolutions_failed, 1u);
}

TEST_F(StackFixture, SelfAddressedDeliversLocally) {
  int delivered = 0;
  a_.stack().RegisterProtocolHandler(
      IpProto::kTcp,
      [&](const Ipv4Header&, const Packet&, NetDevice*) { ++delivered; });
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(10, 0, 0, 2), IpProto::kTcp, {1});
  sim_.Run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(StackFixture, TransitFilterDropsAndSignalsAdminProhibited) {
  // Router refuses transit traffic from seg0 whose source is not 10.0.0.0/24.
  router_.stack().SetForwardFilter([&](const Ipv4Header& header, NetDevice* ingress) {
    if (ingress == r0_) {
      return Subnet::MustParse("10.0.0.0/24").Contains(header.src);
    }
    return true;
  });

  // Spoof a foreign source address from a.
  bool got_admin_prohibited = false;
  a_.stack().SetIcmpErrorHandler([&](const IcmpMessage& msg, const Ipv4Header& offending) {
    EXPECT_EQ(offending.dst, Ipv4Address(10, 0, 1, 2));
    got_admin_prohibited =
        msg.code == static_cast<uint8_t>(IcmpUnreachableCode::kAdminProhibited);
  });
  // The spoofed source must be routable back to a for the ICMP error to
  // arrive; use an address on a's own subnet... no: transit means non-local.
  // Configure an extra (home-like) address route back via seg0.
  router_.AddHostRoute(Ipv4Address(36, 135, 0, 10), Ipv4Address::Any(), r0_);
  a_.stack().ConfigureAddress(a_dev_, Ipv4Address(10, 0, 0, 2), SubnetMask(24));
  // Add the spoofed address as a second local address on a separate device so
  // the ICMP error can be delivered. Simpler: send with explicit source and
  // watch the router counter instead.
  a_.stack().SendDatagram(Ipv4Address(36, 135, 0, 10), Ipv4Address(10, 0, 1, 2), IpProto::kTcp,
                          {1});
  sim_.Run();
  EXPECT_EQ(router_.stack().counters().drop_filtered, 1u);
  EXPECT_EQ(router_.stack().counters().icmp_errors_sent, 1u);
  (void)got_admin_prohibited;  // Delivery of the error needs 36.135.0.10 local.
  EXPECT_EQ(b_.stack().counters().datagrams_delivered, 0u);
}

TEST_F(StackFixture, RouteOverrideRedirectsAndRewritesSource) {
  // An override that forces everything to b via the router with a fixed
  // source — a miniature of what mobile IP does.
  a_.stack().SetRouteLookupOverride(
      [&](const RouteQuery& query) -> std::optional<RouteDecision> {
        if (query.dst == Ipv4Address(10, 0, 1, 2) && query.src_hint.IsAny()) {
          RouteDecision d;
          d.device = a_dev_;
          d.src = Ipv4Address(10, 0, 0, 2);
          d.next_hop = Ipv4Address(10, 0, 0, 1);
          return d;
        }
        return std::nullopt;
      });
  int delivered = 0;
  b_.stack().RegisterProtocolHandler(
      IpProto::kTcp, [&](const Ipv4Header& h, const Packet&, NetDevice*) {
        EXPECT_EQ(h.src, Ipv4Address(10, 0, 0, 2));
        ++delivered;
      });
  a_.stack().routes().Clear();  // Only the override can route now.
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(10, 0, 1, 2), IpProto::kTcp, {1});
  sim_.Run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(StackFixture, UnknownProtocolCounted) {
  a_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(10, 0, 0, 2),
                          static_cast<IpProto>(200), {1});
  sim_.Run();
  EXPECT_EQ(a_.stack().counters().drop_no_handler, 1u);
}

TEST_F(StackFixture, InterfaceAccessors) {
  EXPECT_TRUE(a_.stack().IsLocalAddress(Ipv4Address(10, 0, 0, 2)));
  EXPECT_FALSE(a_.stack().IsLocalAddress(Ipv4Address(10, 0, 0, 3)));
  EXPECT_EQ(a_.stack().GetInterfaceAddress(a_dev_), Ipv4Address(10, 0, 0, 2));
  auto subnet = a_.stack().GetInterfaceSubnet(a_dev_);
  ASSERT_TRUE(subnet.has_value());
  EXPECT_EQ(subnet->ToString(), "10.0.0.0/24");
  a_.stack().UnconfigureAddress(a_dev_);
  EXPECT_FALSE(a_.stack().GetInterfaceAddress(a_dev_).has_value());
  EXPECT_FALSE(a_.stack().IsLocalAddress(Ipv4Address(10, 0, 0, 2)));
}

TEST_F(StackFixture, ReconfigureReplacesConnectedRoute) {
  const size_t before = a_.stack().routes().size();
  a_.stack().ConfigureAddress(a_dev_, Ipv4Address(10, 0, 0, 9), SubnetMask(24));
  EXPECT_EQ(a_.stack().routes().size(), before);  // Replaced, not added.
  EXPECT_TRUE(a_.stack().IsLocalAddress(Ipv4Address(10, 0, 0, 9)));
  EXPECT_FALSE(a_.stack().IsLocalAddress(Ipv4Address(10, 0, 0, 2)));
}

// --- UDP socket behaviour ----------------------------------------------------------

TEST_F(StackFixture, UdpRoundTrip) {
  UdpSocket server(b_.stack());
  ASSERT_TRUE(server.Bind(5000));
  std::vector<uint8_t> got;
  Ipv4Address got_src;
  server.SetReceiveHandler([&](const std::vector<uint8_t>& data,
                               const UdpSocket::Metadata& meta) {
    got = data;
    got_src = meta.src;
    server.SendTo(meta.src, meta.src_port, {'o', 'k'});
  });

  UdpSocket client(a_.stack());
  std::vector<uint8_t> reply;
  client.SetReceiveHandler(
      [&](const std::vector<uint8_t>& data, const UdpSocket::Metadata&) { reply = data; });
  client.SendTo(Ipv4Address(10, 0, 1, 2), 5000, {'h', 'i'});
  sim_.Run();
  EXPECT_EQ(got, (std::vector<uint8_t>{'h', 'i'}));
  EXPECT_EQ(got_src, Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(reply, (std::vector<uint8_t>{'o', 'k'}));
}

TEST_F(StackFixture, UdpToClosedPortSignalsUnreachable) {
  bool port_unreachable = false;
  a_.stack().SetIcmpErrorHandler([&](const IcmpMessage& msg, const Ipv4Header&) {
    port_unreachable =
        msg.code == static_cast<uint8_t>(IcmpUnreachableCode::kPortUnreachable);
  });
  UdpSocket client(a_.stack());
  client.SendTo(Ipv4Address(10, 0, 1, 2), 4321, {1});
  sim_.Run();
  EXPECT_TRUE(port_unreachable);
}

TEST_F(StackFixture, UdpBoundSourceAddressSelectsSocket) {
  // Two sockets on the same port: one bound to the address, one wildcard.
  UdpSocket bound(b_.stack()), wildcard(b_.stack());
  ASSERT_TRUE(bound.Bind(6000));
  ASSERT_TRUE(wildcard.Bind(6000));
  bound.BindSourceAddress(Ipv4Address(10, 0, 1, 2));
  int bound_got = 0, wildcard_got = 0;
  bound.SetReceiveHandler(
      [&](const std::vector<uint8_t>&, const UdpSocket::Metadata&) { ++bound_got; });
  wildcard.SetReceiveHandler(
      [&](const std::vector<uint8_t>&, const UdpSocket::Metadata&) { ++wildcard_got; });

  UdpSocket client(a_.stack());
  client.SendTo(Ipv4Address(10, 0, 1, 2), 6000, {1});
  sim_.Run();
  EXPECT_EQ(bound_got, 1);
  EXPECT_EQ(wildcard_got, 0);
}

TEST_F(StackFixture, EphemeralPortsAreUnique) {
  UdpSocket s1(a_.stack()), s2(a_.stack());
  ASSERT_TRUE(s1.Bind(0));
  ASSERT_TRUE(s2.Bind(0));
  EXPECT_NE(s1.local_port(), 0);
  EXPECT_NE(s1.local_port(), s2.local_port());
}

// --- Pinger ------------------------------------------------------------------------

TEST_F(StackFixture, PingAcrossRouter) {
  Pinger pinger(a_.stack());
  bool replied = false;
  pinger.Ping(Ipv4Address(10, 0, 1, 2), Seconds(2), [&](const Pinger::Result& r) {
    replied = r.success;
    EXPECT_GT(r.rtt.nanos(), 0);
    EXPECT_EQ(r.responder, Ipv4Address(10, 0, 1, 2));
  });
  sim_.Run();
  EXPECT_TRUE(replied);
  EXPECT_EQ(b_.stack().counters().icmp_echo_replies_sent, 1u);
}

TEST_F(StackFixture, PingTimeoutFires) {
  Pinger pinger(a_.stack());
  bool completed = false;
  pinger.Ping(Ipv4Address(10, 0, 3, 99), Milliseconds(500), [&](const Pinger::Result& r) {
    completed = true;
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(r.admin_prohibited);
  });
  sim_.RunFor(Seconds(5));
  EXPECT_TRUE(completed);
  EXPECT_EQ(pinger.outstanding(), 0);
}

TEST_F(StackFixture, ConcurrentPingersDemultiplex) {
  Pinger p1(a_.stack()), p2(a_.stack());
  int done = 0;
  p1.Ping(Ipv4Address(10, 0, 1, 2), Seconds(2), [&](const Pinger::Result& r) {
    EXPECT_TRUE(r.success);
    ++done;
  });
  p2.Ping(Ipv4Address(10, 0, 0, 1), Seconds(2), [&](const Pinger::Result& r) {
    EXPECT_TRUE(r.success);
    ++done;
  });
  sim_.Run();
  EXPECT_EQ(done, 2);
}

// A destination-unreachable error whose embedded echo request names a seq the
// pinger no longer (or never) tracked falls back to the oldest outstanding
// probe, ties broken by lowest seq. Regression for an iteration-order leak:
// outstanding_ was an unordered_map, so with two probes sent in the same
// event the completed seq depended on hash-bucket order (found by
// msn_analyze's determinism/unordered-iteration rule).
TEST_F(StackFixture, StaleUnreachableFallsBackToOldestProbeLowestSeq) {
  Pinger pinger(a_.stack());
  std::vector<std::pair<uint16_t, bool>> completions;  // (seq, admin_prohibited)
  auto record = [&](const Pinger::Result& r) {
    completions.emplace_back(r.seq, r.admin_prohibited);
  };
  // Two probes to silent hosts, sent in the same event => identical sent_at.
  pinger.Ping(Ipv4Address(10, 0, 0, 80), Seconds(10), record);
  pinger.Ping(Ipv4Address(10, 0, 0, 81), Seconds(10), record);

  // A router-style unreachable that embeds one of our echo requests but a
  // stale sequence number (777): the pinger cannot match it and must fall
  // back deterministically.
  IcmpMessage err;
  err.type = IcmpType::kDestinationUnreachable;
  err.code = static_cast<uint8_t>(IcmpUnreachableCode::kAdminProhibited);
  Ipv4Header offending;
  offending.protocol = IpProto::kIcmp;
  offending.src = Ipv4Address(10, 0, 0, 2);
  offending.dst = Ipv4Address(10, 0, 0, 80);
  ByteWriter w;
  offending.Serialize(w);
  w.WriteU8(static_cast<uint8_t>(IcmpType::kEchoRequest));
  w.WriteU8(0);
  w.WriteU16(0);  // Inner checksum (not verified inside error payloads).
  w.WriteU16(pinger.echo_id());
  w.WriteU16(777);  // Stale seq: matches no outstanding probe.
  err.payload = w.Take();
  sim_.Schedule(Seconds(1), [&] { b_.stack().SendIcmp(Ipv4Address(10, 0, 0, 2), err); });

  sim_.RunFor(Seconds(2));
  // Exactly the first probe (oldest, lowest seq among the tie) completed.
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_EQ(completions[0].first, 1);
  EXPECT_TRUE(completions[0].second);
  EXPECT_EQ(pinger.outstanding(), 1);

  sim_.RunFor(Seconds(10));  // The survivor times out normally.
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[1].first, 2);
  EXPECT_FALSE(completions[1].second);
}

// Same-seed byte-identical check for the scenario above: two independent runs
// must produce the same completion log, byte for byte. Guards the fuzzer's
// replay/shrinking contract (DESIGN.md §13) against probe-completion order
// regressing into a hash-order dependency.
TEST(PingerDeterminismTest, StaleErrorFallbackIsByteIdenticalAcrossRuns) {
  auto run_once = [] {
    Simulator sim(1234);
    BroadcastMedium seg(sim, "seg0", EthernetMediumParams());
    Node a(sim, "a"), b(sim, "b");
    EthernetDevice* a_dev = a.AddEthernet("eth0", &seg);
    EthernetDevice* b_dev = b.AddEthernet("eth0", &seg);
    a_dev->ForceUp();
    b_dev->ForceUp();
    a.ConfigureInterface(a_dev, "10.0.0.2/24");
    b.ConfigureInterface(b_dev, "10.0.0.3/24");

    Pinger pinger(a.stack());
    std::string log;
    auto record = [&](const Pinger::Result& r) {
      log += "t=" + std::to_string(sim.Now().nanos()) + " seq=" + std::to_string(r.seq) +
             " admin=" + std::to_string(r.admin_prohibited) + ";";
    };
    pinger.Ping(Ipv4Address(10, 0, 0, 80), Seconds(10), record);
    pinger.Ping(Ipv4Address(10, 0, 0, 81), Seconds(10), record);

    IcmpMessage err;
    err.type = IcmpType::kDestinationUnreachable;
    err.code = static_cast<uint8_t>(IcmpUnreachableCode::kAdminProhibited);
    Ipv4Header offending;
    offending.protocol = IpProto::kIcmp;
    offending.src = Ipv4Address(10, 0, 0, 2);
    offending.dst = Ipv4Address(10, 0, 0, 80);
    ByteWriter w;
    offending.Serialize(w);
    w.WriteU8(static_cast<uint8_t>(IcmpType::kEchoRequest));
    w.WriteU8(0);
    w.WriteU16(0);
    w.WriteU16(pinger.echo_id());
    w.WriteU16(777);
    err.payload = w.Take();
    sim.Schedule(Seconds(1), [&] { b.stack().SendIcmp(Ipv4Address(10, 0, 0, 2), err); });
    sim.RunFor(Seconds(15));
    return log;
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  // The stale error must complete seq 1 (oldest tie, lowest seq) first.
  EXPECT_EQ(first.find("seq=1 admin=1"), first.find("seq="));
}

// --- Broadcast ----------------------------------------------------------------------

TEST_F(StackFixture, LimitedBroadcastReachesSegment) {
  Node c(sim_, "c");
  EthernetDevice* c_dev = c.AddEthernet("eth0", &seg0_);
  c_dev->ForceUp();
  c.ConfigureInterface(c_dev, "10.0.0.3/24");

  UdpSocket listener(c.stack());
  ASSERT_TRUE(listener.Bind(999));
  int got = 0;
  listener.SetReceiveHandler(
      [&](const std::vector<uint8_t>&, const UdpSocket::Metadata&) { ++got; });

  UdpSocket sender(a_.stack());
  UdpSocket::SendExtras extras;
  extras.force_device = a_dev_;
  extras.force_broadcast_mac = true;
  sender.SendToWithExtras(Ipv4Address::Broadcast(), 999, {1}, extras);
  sim_.Run();
  EXPECT_EQ(got, 1);
}

// --- Per-hop datapath work ----------------------------------------------------------

// An IP protocol number with no registered handler: the sink counts the
// delivery and stops, with no reply traffic and no payload parsing.
constexpr IpProto kUnhandledProto = static_cast<IpProto>(0xfd);

struct ChainWork {
  uint64_t forwards = 0;
  uint64_t delivered = 0;
  uint64_t events = 0;
  Packet::Stats packets;  // Deltas over the run.
};

// Source -> 4 routers -> sink, each link its own broadcast medium with zero
// jitter and no loss, every next hop in a static ARP entry: `packets`
// 1000-byte datagrams cross the chain and nothing else happens.
ChainWork RunForwardingChain(int packets) {
  constexpr int kRouters = 4;
  Simulator sim(4000);
  MediumParams wire;
  wire.latency = Microseconds(10);
  wire.latency_jitter = Duration();
  wire.drop_probability = 0.0;
  std::vector<std::unique_ptr<BroadcastMedium>> media;
  for (int i = 0; i <= kRouters; ++i) {
    std::string name = "m";  // Appended: gcc 12 -Wrestrict misfires on "m" + string&&.
    name += std::to_string(i);
    media.push_back(std::make_unique<BroadcastMedium>(sim, name, wire));
  }
  const auto addr = [](int net, int host) {
    return Ipv4Address(10, static_cast<uint8_t>(net), 0, static_cast<uint8_t>(host));
  };
  const size_t queue = static_cast<size_t>(packets) + 16;

  Node source(sim, "src");
  EthernetDevice* src_eth = source.AddEthernet("eth0", media[0].get());
  src_eth->ForceUp();
  src_eth->set_queue_capacity(queue);
  source.ConfigureInterface(src_eth, "10.0.0.10/24");
  source.AddDefaultRoute(addr(0, 1), src_eth);

  Node sink(sim, "sink");
  EthernetDevice* sink_eth = sink.AddEthernet("eth0", media[kRouters].get());
  sink_eth->ForceUp();
  sink.ConfigureInterface(sink_eth, "10.4.0.10/24");
  const Ipv4Address sink_addr = addr(kRouters, 10);

  std::vector<std::unique_ptr<Node>> routers;
  for (int i = 0; i < kRouters; ++i) {
    std::string name = "r";
    name += std::to_string(i);
    auto router = std::make_unique<Node>(sim, name);
    router->stack().set_forwarding_enabled(true);
    EthernetDevice* left = router->AddEthernet("left", media[i].get());
    EthernetDevice* right = router->AddEthernet("right", media[i + 1].get());
    for (EthernetDevice* dev : {left, right}) {
      dev->ForceUp();
      dev->set_queue_capacity(queue);
    }
    router->ConfigureInterface(left, "10." + std::to_string(i) + ".0.1/24");
    router->ConfigureInterface(right, "10." + std::to_string(i + 1) + ".0.2/24");
    if (i + 1 < kRouters) {
      router->AddHostRoute(sink_addr, addr(i + 1, 1), right);
    }
    routers.push_back(std::move(router));
  }
  source.stack().arp().AddStaticEntry(addr(0, 1), routers[0]->FindDevice("left")->mac());
  for (int i = 0; i < kRouters; ++i) {
    if (i + 1 < kRouters) {
      routers[i]->stack().arp().AddStaticEntry(addr(i + 1, 1),
                                               routers[i + 1]->FindDevice("left")->mac());
    } else {
      routers[i]->stack().arp().AddStaticEntry(sink_addr, sink_eth->mac());
    }
  }

  const std::vector<uint8_t> payload(1000, 0xa5);
  for (int i = 0; i < packets; ++i) {
    source.stack().SendDatagram(addr(0, 10), sink_addr, kUnhandledProto, payload);
  }
  const Packet::Stats before = Packet::stats();
  sim.Run();
  const Packet::Stats after = Packet::stats();

  ChainWork work;
  for (const auto& router : routers) {
    work.forwards += router->stack().counters().datagrams_forwarded;
  }
  work.delivered = sink.stack().counters().datagrams_delivered;
  work.events = sim.events_executed();
  work.packets.copies = after.copies - before.copies;
  work.packets.cow_breaks = after.cow_breaks - before.cow_breaks;
  work.packets.allocations = after.allocations - before.allocations;
  return work;
}

// The deterministic cost of one datagram crossing the chain: one forward per
// router, 11 simulator events end to end, and not one packet copy, COW break
// or storage allocation after the source built the wire image. A plumbing
// event or a copy added anywhere on the per-hop path shows up here exactly.
TEST(ForwardingChainTest, PerHopWorkIsExact) {
  for (const uint64_t n : {1, 10, 200}) {
    SCOPED_TRACE("packets=" + std::to_string(n));
    const ChainWork work = RunForwardingChain(static_cast<int>(n));
    EXPECT_EQ(work.forwards, 4 * n);
    EXPECT_EQ(work.delivered, n);
    EXPECT_EQ(work.events, 11 * n);
    EXPECT_EQ(work.packets.copies, 0u);
    EXPECT_EQ(work.packets.cow_breaks, 0u);
    EXPECT_EQ(work.packets.allocations, 0u);
  }
}

}  // namespace
}  // namespace msn
