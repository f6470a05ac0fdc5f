// Tests for the foreign-agent extension (paper §5.1): advertisement,
// FA-relayed registration, decapsulate-and-deliver-by-MAC, and forwarding of
// late tunnel packets after a visitor departs.
#include <gtest/gtest.h>

#include "src/mip/foreign_agent.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"

namespace msn {
namespace {

class ForeignAgentFixture : public ::testing::Test {
 protected:
  void Build(bool forward_after_departure, uint64_t seed = 51) {
    TestbedConfig cfg;
    cfg.seed = seed;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();

    // A foreign agent host on net 36.8.
    fa_node_ = std::make_unique<Node>(tb_->sim, "fa");
    fa_dev_ = fa_node_->AddEthernet("eth0", tb_->net8.get());
    fa_dev_->ForceUp();
    fa_node_->ConfigureInterface(fa_dev_, "36.8.0.2/16");
    fa_node_->AddDefaultRoute(Testbed::RouterOn8(), fa_dev_);
    fa_node_->stack().set_forwarding_enabled(true);

    ForeignAgent::Config fc;
    fc.address = Ipv4Address(36, 8, 0, 2);
    fc.device = fa_dev_;
    fc.forward_after_departure = forward_after_departure;
    fa_ = std::make_unique<ForeignAgent>(*fa_node_, fc);
  }

  void AttachViaFa() {
    // Move the MH's Ethernet to net 36.8; no address needed at all.
    tb_->mh->stack().routes().RemoveForDevice(tb_->mh_eth);
    tb_->mh->stack().UnconfigureAddress(tb_->mh_eth);
    tb_->MoveMhEthernetTo(tb_->net8.get());
    tb_->ForceEthUp();
    bool done = false;
    tb_->mobile->AttachViaForeignAgent(tb_->mh_eth, Ipv4Address(36, 8, 0, 2),
                                       [&](bool ok) { done = ok; });
    tb_->RunFor(Seconds(5));
    ASSERT_TRUE(done);
    ASSERT_TRUE(tb_->mobile->registered());
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<Node> fa_node_;
  EthernetDevice* fa_dev_ = nullptr;
  std::unique_ptr<ForeignAgent> fa_;
};

TEST_F(ForeignAgentFixture, AdvertisementsAreHeard) {
  Build(true);
  int heard = 0;
  AgentAdvertisementListener listener(
      *tb_->ch, [&](const AgentAdvertisement& adv, MacAddress fa_mac) {
        EXPECT_EQ(adv.agent_address, Ipv4Address(36, 8, 0, 2));
        EXPECT_EQ(fa_mac, fa_dev_->mac());
        ++heard;
      });
  tb_->RunFor(Seconds(5));
  EXPECT_GE(heard, 4);
  EXPECT_GE(fa_->counters().advertisements_sent, 4u);
}

TEST_F(ForeignAgentFixture, RegistrationRelayedThroughFa) {
  Build(true);
  AttachViaFa();
  EXPECT_TRUE(tb_->mobile->attached_via_foreign_agent());
  EXPECT_EQ(fa_->visitor_count(), 1u);
  EXPECT_TRUE(fa_->HasVisitor(Testbed::HomeAddress()));
  EXPECT_GE(fa_->counters().requests_relayed, 1u);
  EXPECT_GE(fa_->counters().replies_relayed, 1u);

  auto binding = tb_->home_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(binding.has_value());
  // The care-of address is the FA itself, and the FA decapsulates.
  EXPECT_EQ(binding->care_of, Ipv4Address(36, 8, 0, 2));
  EXPECT_FALSE(binding->decapsulates_self);
  // The MH never acquired an address on the visited network.
  EXPECT_FALSE(tb_->mh->stack().GetInterfaceAddress(tb_->mh_eth).has_value());
}

TEST_F(ForeignAgentFixture, TrafficFlowsThroughFa) {
  Build(true);
  AttachViaFa();

  ProbeEchoServer echo(*tb_->mh, 7);
  ProbeSender sender(*tb_->ch, ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(50)});
  sender.Start();
  tb_->RunFor(Seconds(2));
  sender.Stop();
  tb_->RunFor(Seconds(1));

  EXPECT_GT(sender.received(), 30u);
  EXPECT_EQ(sender.TotalLost(), 0u);
  // Inbound went HA-tunnel -> FA -> visitor MAC.
  EXPECT_GT(fa_->counters().packets_delivered, 30u);
  // The MH itself decapsulated nothing: that is the FA's job here.
  EXPECT_EQ(tb_->mobile->counters().packets_decapsulated_in, 0u);
}

TEST_F(ForeignAgentFixture, DepartureForwardingSavesLatePackets) {
  Build(true);
  AttachViaFa();

  // The MH moves to the radio network with a co-located care-of address.
  bool switched = false;
  tb_->mobile->ColdSwitchTo(tb_->WirelessAttachment(60), [&](bool ok) { switched = ok; });
  tb_->RunFor(Seconds(6));
  ASSERT_TRUE(switched);
  EXPECT_FALSE(tb_->mobile->attached_via_foreign_agent());
  EXPECT_GE(fa_->counters().binding_updates_received, 1u);
  EXPECT_EQ(fa_->visitor_count(), 0u);

  // A "late" tunnel packet arrives at the FA (as if it had been in flight
  // when the binding moved): the FA re-tunnels it to the new care-of.
  UdpSocket listener(tb_->mh->stack());
  ASSERT_TRUE(listener.Bind(7777));
  int got = 0;
  listener.SetReceiveHandler(
      [&](const std::vector<uint8_t>&, const UdpSocket::Metadata&) { ++got; });

  Ipv4Datagram inner;
  inner.header.protocol = IpProto::kUdp;
  inner.header.src = tb_->ch_address();
  inner.header.dst = Testbed::HomeAddress();
  UdpDatagram udp;
  udp.src_port = 1234;
  udp.dst_port = 7777;
  udp.payload = {'l', 'a', 't', 'e'};
  inner.payload = udp.Serialize(inner.header.src, inner.header.dst);
  Ipv4Header outer;
  Packet late = EncapsulateIpIpPacket(outer, BuildIpv4Packet(inner.header, inner.payload),
                                      tb_->home_agent_address(), Ipv4Address(36, 8, 0, 2));
  tb_->router->stack().SendPreformedPacket(outer, std::move(late), /*forwarding=*/false);
  tb_->RunFor(Seconds(2));

  EXPECT_EQ(got, 1);
  EXPECT_EQ(fa_->counters().packets_forwarded_after_departure, 1u);
}

TEST_F(ForeignAgentFixture, WithoutForwardingLatePacketsDie) {
  Build(false);
  AttachViaFa();

  bool switched = false;
  tb_->mobile->ColdSwitchTo(tb_->WirelessAttachment(60), [&](bool ok) { switched = ok; });
  tb_->RunFor(Seconds(6));
  ASSERT_TRUE(switched);

  UdpSocket listener(tb_->mh->stack());
  ASSERT_TRUE(listener.Bind(7777));
  int got = 0;
  listener.SetReceiveHandler(
      [&](const std::vector<uint8_t>&, const UdpSocket::Metadata&) { ++got; });

  Ipv4Datagram inner;
  inner.header.protocol = IpProto::kUdp;
  inner.header.src = tb_->ch_address();
  inner.header.dst = Testbed::HomeAddress();
  UdpDatagram udp;
  udp.dst_port = 7777;
  inner.payload = udp.Serialize(inner.header.src, inner.header.dst);
  Ipv4Header outer;
  Packet late = EncapsulateIpIpPacket(outer, BuildIpv4Packet(inner.header, inner.payload),
                                      tb_->home_agent_address(), Ipv4Address(36, 8, 0, 2));
  tb_->router->stack().SendPreformedPacket(outer, std::move(late), /*forwarding=*/false);
  tb_->RunFor(Seconds(2));

  EXPECT_EQ(got, 0);
  EXPECT_GE(fa_->counters().packets_dropped_unknown_visitor, 1u);
}

TEST_F(ForeignAgentFixture, DiscoveryDrivenAttach) {
  Build(true);
  tb_->mh->stack().routes().RemoveForDevice(tb_->mh_eth);
  tb_->mh->stack().UnconfigureAddress(tb_->mh_eth);
  tb_->MoveMhEthernetTo(tb_->net8.get());
  tb_->ForceEthUp();

  bool done = false;
  bool result = false;
  DiscoverAndAttachViaForeignAgent(*tb_->mobile, tb_->mh_eth, Seconds(5), [&](bool ok) {
    done = true;
    result = ok;
  });
  tb_->RunFor(Seconds(10));
  EXPECT_TRUE(done);
  EXPECT_TRUE(result);
  EXPECT_TRUE(tb_->mobile->attached_via_foreign_agent());
  EXPECT_EQ(tb_->mobile->care_of(), Ipv4Address(36, 8, 0, 2));
}

TEST_F(ForeignAgentFixture, DiscoveryTimesOutWithoutAgent) {
  Build(true);
  fa_.reset();  // No agent advertising.
  tb_->mh->stack().routes().RemoveForDevice(tb_->mh_eth);
  tb_->mh->stack().UnconfigureAddress(tb_->mh_eth);
  tb_->MoveMhEthernetTo(tb_->net8.get());
  tb_->ForceEthUp();

  bool done = false;
  bool result = true;
  DiscoverAndAttachViaForeignAgent(*tb_->mobile, tb_->mh_eth, Seconds(2), [&](bool ok) {
    done = true;
    result = ok;
  });
  tb_->RunFor(Seconds(5));
  EXPECT_TRUE(done);
  EXPECT_FALSE(result);
}

TEST_F(ForeignAgentFixture, ReturnHomeFromFaMode) {
  Build(true);
  AttachViaFa();
  tb_->MoveMhEthernetTo(tb_->net135.get());
  bool done = false;
  tb_->mobile->AttachHome([&](bool ok) { done = ok; });
  tb_->RunFor(Seconds(5));
  EXPECT_TRUE(done);
  EXPECT_TRUE(tb_->mobile->at_home());
  EXPECT_FALSE(tb_->mobile->attached_via_foreign_agent());
  EXPECT_FALSE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
}

}  // namespace
}  // namespace msn
