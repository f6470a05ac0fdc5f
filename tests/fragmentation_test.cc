// IP fragmentation & reassembly: unit tests for the algorithms plus the
// mobile-IP case that motivates them — tunnel encapsulation pushing a
// datagram past the path MTU (paper §3.2: encapsulation "adds 20 bytes or
// more to the packet length").
#include <gtest/gtest.h>

#include "src/node/node.h"
#include "src/node/reassembly.h"
#include "src/node/udp.h"
#include "src/topo/testbed.h"

namespace msn {
namespace {

Ipv4Datagram MakeDatagram(size_t payload_size, uint16_t id = 7) {
  Ipv4Datagram dg;
  dg.header.protocol = IpProto::kUdp;
  dg.header.src = Ipv4Address(1, 1, 1, 1);
  dg.header.dst = Ipv4Address(2, 2, 2, 2);
  dg.header.identification = id;
  dg.payload.resize(payload_size);
  for (size_t i = 0; i < payload_size; ++i) {
    dg.payload[i] = static_cast<uint8_t>(i * 13);
  }
  return dg;
}

// --- FragmentDatagram -------------------------------------------------------------

TEST(FragmentTest, SplitsAtEightByteBoundaries) {
  const Ipv4Datagram dg = MakeDatagram(3000);
  const auto fragments = FragmentDatagram(dg, 1500);
  ASSERT_EQ(fragments.size(), 3u);
  // First two carry 1480 bytes (1500 - 20, already 8-aligned).
  EXPECT_EQ(fragments[0].payload.size(), 1480u);
  EXPECT_EQ(fragments[0].header.fragment_offset, 0);
  EXPECT_TRUE(fragments[0].header.more_fragments);
  EXPECT_EQ(fragments[1].payload.size(), 1480u);
  EXPECT_EQ(fragments[1].header.fragment_offset, 185);  // 1480 / 8.
  EXPECT_TRUE(fragments[1].header.more_fragments);
  EXPECT_EQ(fragments[2].payload.size(), 40u);
  EXPECT_FALSE(fragments[2].header.more_fragments);
  // All share identity fields.
  for (const auto& f : fragments) {
    EXPECT_EQ(f.header.identification, dg.header.identification);
    EXPECT_EQ(f.header.protocol, dg.header.protocol);
    EXPECT_LE(Ipv4Header::kSize + f.payload.size(), 1500u);
  }
}

TEST(FragmentDeathTest, OffsetBeyondThirteenBitsTripsContract) {
  // A middle fragment re-fragmented near the top of the offset field: the
  // pieces past byte 65528 cannot be encoded and previously wrapped silently
  // into a low offset, corrupting reassembly at the far end.
  Ipv4Datagram dg = MakeDatagram(6000);
  dg.header.fragment_offset = 0x1f00;  // Starts at byte 63488.
  dg.header.more_fragments = true;
  EXPECT_DEATH((void)FragmentDatagram(dg, 1500), "13-bit field");
}

TEST(FragmentTest, OversizeFragmentRejectedBeforeBuffering) {
  // offset 0x1fff * 8 + payload claims bytes past the 65535-byte datagram
  // bound — the "ping of death" shape. It must be dropped up front, not
  // buffered (where completion would build an unserializable datagram).
  Simulator sim(1);
  ReassemblyService service(sim);
  Ipv4Datagram evil = MakeDatagram(200);
  evil.header.fragment_offset = 0x1fff;
  evil.header.more_fragments = false;
  EXPECT_FALSE(service.Add(evil).has_value());
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.counters().fragments_rejected_oversize, 1u);
  EXPECT_EQ(service.counters().fragments_received, 1u);

  // A well-formed sibling datagram still reassembles normally afterwards.
  const auto fragments = FragmentDatagram(MakeDatagram(3000, 8), 1500);
  std::optional<Ipv4Datagram> out;
  for (const auto& f : fragments) {
    out = service.Add(f);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload.size(), 3000u);
}

TEST(FragmentTest, SmallDatagramUntouchedByReassemblyService) {
  Simulator sim(1);
  ReassemblyService service(sim);
  const Ipv4Datagram dg = MakeDatagram(100);
  auto out = service.Add(dg);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, dg.payload);
  EXPECT_EQ(service.counters().fragments_received, 0u);
}

TEST(FragmentTest, ReassemblyInOrder) {
  Simulator sim(1);
  ReassemblyService service(sim);
  const Ipv4Datagram dg = MakeDatagram(3000);
  const auto fragments = FragmentDatagram(dg, 1500);
  std::optional<Ipv4Datagram> whole;
  for (const auto& f : fragments) {
    whole = service.Add(f);
  }
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, dg.payload);
  EXPECT_FALSE(whole->header.IsFragment());
  EXPECT_EQ(service.counters().datagrams_reassembled, 1u);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(FragmentTest, ReassemblyOutOfOrder) {
  Simulator sim(1);
  ReassemblyService service(sim);
  const Ipv4Datagram dg = MakeDatagram(4000);
  auto fragments = FragmentDatagram(dg, 1100);
  ASSERT_GE(fragments.size(), 4u);
  // Deliver last-first.
  std::optional<Ipv4Datagram> whole;
  for (auto it = fragments.rbegin(); it != fragments.rend(); ++it) {
    whole = service.Add(*it);
  }
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, dg.payload);
}

TEST(FragmentTest, InterleavedDatagramsKeptApart) {
  Simulator sim(1);
  ReassemblyService service(sim);
  const Ipv4Datagram a = MakeDatagram(2000, 1);
  const Ipv4Datagram b = MakeDatagram(2000, 2);
  const auto fa = FragmentDatagram(a, 1500);
  const auto fb = FragmentDatagram(b, 1500);
  EXPECT_FALSE(service.Add(fa[0]).has_value());
  EXPECT_FALSE(service.Add(fb[0]).has_value());
  auto whole_b = service.Add(fb[1]);
  ASSERT_TRUE(whole_b.has_value());
  EXPECT_EQ(whole_b->payload, b.payload);
  auto whole_a = service.Add(fa[1]);
  ASSERT_TRUE(whole_a.has_value());
  EXPECT_EQ(whole_a->payload, a.payload);
}

TEST(FragmentTest, MissingFragmentTimesOut) {
  Simulator sim(1);
  ReassemblyService service(sim);
  service.set_timeout(Seconds(5));
  const auto fragments = FragmentDatagram(MakeDatagram(3000), 1500);
  EXPECT_FALSE(service.Add(fragments[0]).has_value());
  EXPECT_FALSE(service.Add(fragments[2]).has_value());  // Gap at [1].
  EXPECT_EQ(service.pending(), 1u);
  sim.RunFor(Seconds(6));
  // Feeding an unrelated fragment triggers expiry sweep.
  EXPECT_FALSE(service.Add(FragmentDatagram(MakeDatagram(2000, 99), 1500)[0]).has_value());
  EXPECT_EQ(service.counters().buffers_timed_out, 1u);
}

TEST(FragmentTest, BufferEvictionUnderPressure) {
  Simulator sim(1);
  ReassemblyService service(sim);
  service.set_max_buffers(4);
  for (uint16_t id = 0; id < 10; ++id) {
    EXPECT_FALSE(service.Add(FragmentDatagram(MakeDatagram(2000, id), 1500)[0]).has_value());
  }
  EXPECT_LE(service.pending(), 4u);
  EXPECT_GE(service.counters().buffers_evicted, 6u);
}

TEST(FragmentTest, RoundTripPropertyRandomSizes) {
  Simulator sim(77);
  ReassemblyService service(sim);
  Rng rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t size = static_cast<size_t>(rng.UniformInt(uint64_t{1}, uint64_t{9000}));
    const size_t mtu = static_cast<size_t>(rng.UniformInt(uint64_t{68}, uint64_t{1500}));
    const Ipv4Datagram dg = MakeDatagram(size, static_cast<uint16_t>(trial + 1000));
    const auto fragments = FragmentDatagram(dg, mtu);
    std::optional<Ipv4Datagram> whole;
    for (const auto& f : fragments) {
      EXPECT_LE(Ipv4Header::kSize + f.payload.size(), std::max<size_t>(mtu, 28));
      whole = service.Add(f);
    }
    ASSERT_TRUE(whole.has_value()) << "size=" << size << " mtu=" << mtu;
    EXPECT_EQ(whole->payload, dg.payload);
  }
}

// --- End-to-end: tunneling over the small-MTU radio --------------------------------

TEST(FragmentE2eTest, LargeUdpThroughTunnelOverRadio) {
  TestbedConfig cfg;
  cfg.seed = 303;
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWireless(60);  // Radio MTU is 1100.

  UdpSocket server(tb.mh->stack());
  ASSERT_TRUE(server.Bind(7000));
  std::vector<uint8_t> got;
  server.SetReceiveHandler(
      [&](const std::vector<uint8_t>& data, const UdpSocket::Metadata&) { got = data; });

  // 2 KiB payload: even before tunneling it exceeds the radio MTU; the
  // tunnel adds 20 more bytes on the HA->MH leg.
  std::vector<uint8_t> payload(2048);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i);
  }
  UdpSocket client(tb.ch->stack());
  client.SendTo(Testbed::HomeAddress(), 7000, payload);
  tb.RunFor(Seconds(5));

  EXPECT_EQ(got, payload);
  EXPECT_GE(tb.router->stack().counters().fragments_sent, 2u);
  EXPECT_GE(tb.mh->stack().reassembly().counters().datagrams_reassembled, 1u);
}

TEST(FragmentE2eTest, EncapsulationAlonePushesPastMtu) {
  // A payload sized exactly to the radio MTU fits unfragmented when plain,
  // but the 20-byte tunnel header forces fragmentation of the outer packet.
  TestbedConfig cfg;
  cfg.seed = 304;
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWireless(60);

  UdpSocket server(tb.mh->stack());
  ASSERT_TRUE(server.Bind(7001));
  std::vector<uint8_t> got;
  server.SetReceiveHandler(
      [&](const std::vector<uint8_t>& data, const UdpSocket::Metadata&) { got = data; });

  // Inner datagram: 20 (IP) + 8 (UDP) + 1060 = 1088 <= 1100. Outer: 1108.
  std::vector<uint8_t> payload(1060, 0x5a);
  UdpSocket client(tb.ch->stack());
  client.SendTo(Testbed::HomeAddress(), 7001, payload);
  tb.RunFor(Seconds(5));

  EXPECT_EQ(got, payload);
  EXPECT_GE(tb.router->stack().counters().fragments_sent, 2u);
}

TEST(FragmentE2eTest, DontFragmentDropsWithIcmpSignal) {
  Simulator sim(305);
  BroadcastMedium seg(sim, "seg", EthernetMediumParams());
  Node a(sim, "a"), b(sim, "b");
  auto* ad = a.AddEthernet("eth0", &seg);
  auto* bd = b.AddEthernet("eth0", &seg);
  ad->ForceUp();
  bd->ForceUp();
  ad->set_mtu(600);
  a.ConfigureInterface(ad, "10.0.0.1/24");
  b.ConfigureInterface(bd, "10.0.0.2/24");

  bool frag_needed = false;
  a.stack().SetIcmpErrorHandler([&](const IcmpMessage& msg, const Ipv4Header&) {
    frag_needed =
        msg.code == static_cast<uint8_t>(IcmpUnreachableCode::kFragmentationNeeded);
  });

  Ipv4Header header;
  header.protocol = IpProto::kTcp;
  header.src = Ipv4Address(10, 0, 0, 1);
  header.dst = Ipv4Address(10, 0, 0, 2);
  header.dont_fragment = true;
  Packet wire = BuildIpv4Packet(header, std::vector<uint8_t>(1000));
  a.stack().SendPreformedPacket(header, std::move(wire), /*forwarding=*/false);
  sim.Run();

  EXPECT_EQ(a.stack().counters().drop_fragmentation_needed, 1u);
  EXPECT_TRUE(frag_needed);
  EXPECT_EQ(b.stack().counters().datagrams_delivered, 0u);
}

}  // namespace
}  // namespace msn
