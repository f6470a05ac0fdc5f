// Hand-off behaviour: the paper's experiments as integration tests.
//
//  * Same-subnet care-of switch (§4, experiment 1): losses of 0 or 1 probe at
//    a 10 ms probe interval, because the vulnerable window is under 10 ms.
//  * Cold device switches (Figure 6): losses bounded by the interface
//    bring-up time (~1.25 s at a 250 ms probe interval -> a few packets).
//  * Hot device switches (Figure 6): no loss, both interfaces being alive.
//  * Registration timeline (Figure 7): ordered timestamps, millisecond scale.
#include <gtest/gtest.h>

#include "src/tcplite/tcplite.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"

namespace msn {
namespace {

class HandoffTest : public ::testing::Test {
 protected:
  void StartProbes(Duration interval) {
    echo_ = std::make_unique<ProbeEchoServer>(*tb_->mh, 7);
    sender_ = std::make_unique<ProbeSender>(
        *tb_->ch, ProbeSender::Config{Testbed::HomeAddress(), 7, interval});
    sender_->Start();
  }

  void BuildTestbed(uint64_t seed) {
    TestbedConfig cfg;
    cfg.seed = seed;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<ProbeEchoServer> echo_;
  std::unique_ptr<ProbeSender> sender_;
};

TEST_F(HandoffTest, SameSubnetAddressSwitchLosesAtMostOneProbe) {
  BuildTestbed(7);
  tb_->StartMobileOnWired(50);
  StartProbes(Milliseconds(10));
  tb_->RunFor(Seconds(1));

  bool switched = false;
  tb_->mobile->SwitchCareOfAddress(Ipv4Address(36, 8, 0, 51), [&](bool ok) { switched = ok; });
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(switched);
  EXPECT_EQ(tb_->mobile->care_of(), Ipv4Address(36, 8, 0, 51));

  sender_->Stop();
  tb_->RunFor(Seconds(1));
  // Paper: 16/20 runs lost nothing, the rest lost exactly one probe.
  EXPECT_LE(sender_->TotalLost(), 1u);
}

TEST_F(HandoffTest, ColdSwitchWiredToWirelessLosesAFewProbes) {
  BuildTestbed(11);
  tb_->StartMobileOnWired(50);
  StartProbes(Milliseconds(250));
  tb_->RunFor(Seconds(2));

  bool switched = false;
  tb_->mobile->ColdSwitchTo(tb_->WirelessAttachment(60), [&](bool ok) { switched = ok; });
  tb_->RunFor(Seconds(6));
  ASSERT_TRUE(switched);
  ASSERT_TRUE(tb_->mobile->registered());

  sender_->Stop();
  tb_->RunFor(Seconds(2));
  // Bring-up (~1 s) + radio registration (~0.25 s RTT) at 4 probes/s: a few
  // probes die, but well under ten (paper: interval "generally less than
  // 1.25 seconds").
  EXPECT_GE(sender_->TotalLost(), 2u);
  EXPECT_LE(sender_->TotalLost(), 9u);
}

TEST_F(HandoffTest, ColdSwitchWirelessToWiredLosesAFewProbes) {
  BuildTestbed(13);
  tb_->StartMobileOnWireless(60);
  StartProbes(Milliseconds(250));
  tb_->RunFor(Seconds(2));

  // Physically move the Ethernet to the CS-department segment first.
  tb_->MoveMhEthernetTo(tb_->net8.get());
  bool switched = false;
  tb_->mobile->ColdSwitchTo(tb_->WiredAttachment(50), [&](bool ok) { switched = ok; });
  tb_->RunFor(Seconds(6));
  ASSERT_TRUE(switched);
  ASSERT_TRUE(tb_->mobile->registered());

  sender_->Stop();
  tb_->RunFor(Seconds(2));
  EXPECT_GE(sender_->TotalLost(), 1u);
  EXPECT_LE(sender_->TotalLost(), 9u);
}

TEST_F(HandoffTest, HotSwitchWiredToWirelessLosesNothing) {
  BuildTestbed(17);
  tb_->StartMobileOnWired(50);
  // The radio is already up and holds a care-of address: hot switch.
  tb_->ForceRadioUp();
  tb_->mh->stack().ConfigureAddress(tb_->mh_radio, Ipv4Address(36, 134, 0, 70), SubnetMask(16));

  StartProbes(Milliseconds(250));
  tb_->RunFor(Seconds(2));

  MobileHost::Attachment att = tb_->WirelessAttachment(70);
  bool switched = false;
  tb_->mobile->HotSwitchTo(att, [&](bool ok) { switched = ok; });
  tb_->RunFor(Seconds(4));
  ASSERT_TRUE(switched);

  sender_->Stop();
  tb_->RunFor(Seconds(2));
  // Both interfaces stay alive: in-flight packets to the old care-of address
  // are still accepted. (Allow one loss for the radio's own random drops, as
  // the paper also observed.)
  EXPECT_LE(sender_->TotalLost(), 1u);
}

TEST_F(HandoffTest, HotSwitchWirelessToWiredLosesNothing) {
  BuildTestbed(19);
  tb_->StartMobileOnWireless(60);
  tb_->MoveMhEthernetTo(tb_->net8.get());
  tb_->ForceEthUp();
  tb_->mh->stack().ConfigureAddress(tb_->mh_eth, Ipv4Address(36, 8, 0, 55), SubnetMask(16));

  StartProbes(Milliseconds(250));
  tb_->RunFor(Seconds(2));

  bool switched = false;
  tb_->mobile->HotSwitchTo(tb_->WiredAttachment(55), [&](bool ok) { switched = ok; });
  tb_->RunFor(Seconds(4));
  ASSERT_TRUE(switched);

  sender_->Stop();
  tb_->RunFor(Seconds(2));
  EXPECT_LE(sender_->TotalLost(), 1u);
}

TEST_F(HandoffTest, RegistrationTimelineMatchesFigure7Shape) {
  BuildTestbed(23);
  tb_->StartMobileOnWired(50);

  bool switched = false;
  tb_->mobile->SwitchCareOfAddress(Ipv4Address(36, 8, 0, 52), [&](bool ok) { switched = ok; });
  tb_->RunFor(Seconds(2));
  ASSERT_TRUE(switched);

  const auto& tl = tb_->mobile->last_timeline();
  EXPECT_TRUE(tl.success);
  EXPECT_EQ(tl.retransmissions, 0);
  // Strictly ordered steps.
  EXPECT_LT(tl.start, tl.interface_configured);
  EXPECT_LT(tl.interface_configured, tl.route_changed);
  EXPECT_LT(tl.route_changed, tl.request_sent);
  EXPECT_LT(tl.request_sent, tl.reply_received);
  EXPECT_LT(tl.reply_received, tl.done);
  // Millisecond scale, same regime as the paper's 7.39 ms total / 4.79 ms
  // request->reply.
  EXPECT_GT(tl.Total().ToMillisF(), 4.0);
  EXPECT_LT(tl.Total().ToMillisF(), 12.0);
  EXPECT_GT(tl.RequestReply().ToMillisF(), 3.0);
  EXPECT_LT(tl.RequestReply().ToMillisF(), 7.0);
}

TEST_F(HandoffTest, TcpLiteSessionSurvivesColdSwitch) {
  BuildTestbed(29);
  tb_->StartMobileOnWired(50);

  // A long-lived "remote login": CH server, MH client via its home address.
  TcpLite ch_tcp(tb_->ch->stack());
  TcpLite mh_tcp(tb_->mh->stack());
  uint64_t server_bytes = 0;
  ch_tcp.Listen(23, [&](TcpLiteConnection* conn) {
    conn->SetDataHandler([&server_bytes, conn](const std::vector<uint8_t>& data) {
      server_bytes += data.size();
      conn->Send(data);  // Echo.
    });
  });

  uint64_t client_bytes = 0;
  TcpLiteConnection* client = mh_tcp.Connect(
      tb_->ch_address(), 23, [](bool ok) { ASSERT_TRUE(ok); });
  ASSERT_NE(client, nullptr);
  client->SetDataHandler(
      [&client_bytes](const std::vector<uint8_t>& data) { client_bytes += data.size(); });
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(client->established());

  client->Send(std::vector<uint8_t>(1000, 'a'));
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(client_bytes, 1000u);

  // Cold switch to the radio mid-session.
  tb_->mobile->ColdSwitchTo(tb_->WirelessAttachment(60), nullptr);
  // Keep sending during the outage; retransmission covers the gap.
  client->Send(std::vector<uint8_t>(1000, 'b'));
  tb_->RunFor(Seconds(10));
  ASSERT_TRUE(tb_->mobile->registered());
  EXPECT_TRUE(client->established());
  EXPECT_EQ(server_bytes, 2000u);
  EXPECT_EQ(client_bytes, 2000u);

  // And back to wired.
  tb_->MoveMhEthernetTo(tb_->net8.get());
  tb_->mobile->ColdSwitchTo(tb_->WiredAttachment(51), nullptr);
  client->Send(std::vector<uint8_t>(1000, 'c'));
  tb_->RunFor(Seconds(10));
  EXPECT_EQ(server_bytes, 3000u);
  EXPECT_EQ(client_bytes, 3000u);
}

TEST_F(HandoffTest, TriangleRouteFallsBackUnderTransitFilter) {
  TestbedConfig cfg;
  cfg.seed = 31;
  cfg.transit_filter = true;
  // The CH must be beyond the visited subnet's router for the filter to see
  // (and drop) triangle-route packets.
  cfg.external_ch = true;
  tb_ = std::make_unique<Testbed>(cfg);
  tb_->StartMobileAtHome();
  tb_->StartMobileOnWired(50);

  // Try to enable the triangle-route optimization toward the CH.
  bool probe_ok = true;
  tb_->mobile->ProbeTriangleRoute(tb_->ch_address(), [&](bool ok) { probe_ok = ok; });
  tb_->RunFor(Seconds(5));
  EXPECT_FALSE(probe_ok);  // The filter killed the probe.
  EXPECT_EQ(tb_->mobile->counters().probe_fallbacks, 1u);
  // The fallback is cached: the policy for the CH is tunnel-home again.
  EXPECT_EQ(tb_->mobile->policy_table().LookupConst(tb_->ch_address()),
            MobilePolicy::kTunnelHome);

  // Traffic still flows (through the tunnel).
  StartProbes(Milliseconds(50));
  tb_->RunFor(Seconds(1));
  sender_->Stop();
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(sender_->TotalLost(), 0u);
}

TEST_F(HandoffTest, TriangleRouteWorksWithoutFilterAndShortensPath) {
  BuildTestbed(37);
  tb_->StartMobileOnWired(50);

  StartProbes(Milliseconds(50));
  tb_->RunFor(Seconds(1));
  const auto tunnel_rtts = sender_->RttsInWindow(Time::Zero(), tb_->sim.Now());

  bool probe_ok = false;
  tb_->mobile->ProbeTriangleRoute(tb_->ch_address(), [&](bool ok) { probe_ok = ok; });
  tb_->RunFor(Seconds(2));
  ASSERT_TRUE(probe_ok);

  const Time triangle_start = tb_->sim.Now();
  tb_->RunFor(Seconds(1));
  sender_->Stop();
  tb_->RunFor(Seconds(1));
  const auto triangle_rtts = sender_->RttsInWindow(triangle_start, Time::Max());

  ASSERT_FALSE(tunnel_rtts.empty());
  ASSERT_FALSE(triangle_rtts.empty());
  double tunnel_mean = 0, triangle_mean = 0;
  for (Duration d : tunnel_rtts) {
    tunnel_mean += d.ToMillisF();
  }
  tunnel_mean /= static_cast<double>(tunnel_rtts.size());
  for (Duration d : triangle_rtts) {
    triangle_mean += d.ToMillisF();
  }
  triangle_mean /= static_cast<double>(triangle_rtts.size());
  // The MH->CH leg no longer detours through the home agent.
  EXPECT_LT(triangle_mean, tunnel_mean);
}

// The tunnel datapath moves ownership of the wire image from hop to hop, so
// an echo from the correspondent through the HA's tunnel to the MH, and back
// through the reverse tunnel and the HA's forward, copies no packet bytes:
// the one allocation per direction is the sender building its datagram.
TEST(TunnelEchoTest, ReverseTunnelEchoMakesNoPacketCopies) {
  TestbedConfig cfg;
  cfg.seed = 3;
  Testbed tb(cfg);
  tb.StartMobileOnWired();
  ASSERT_TRUE(tb.mobile->registered());
  ProbeEchoServer server(*tb.mh, 7);
  UdpSocket socket(tb.ch->stack());
  ASSERT_TRUE(socket.Bind(0));
  std::vector<std::vector<uint8_t>> echoes;
  socket.SetReceiveHandler([&](const std::vector<uint8_t>& data, const UdpSocket::Metadata&) {
    echoes.push_back(data);
  });
  // Smallest and largest payloads; the large one is the biggest whose
  // tunneled form fits the 1500-byte MTU (1500 - 20 - 20 - 8).
  const auto payload = [](int i) {
    return std::vector<uint8_t>(i % 2 == 0 ? 4 : 1452, static_cast<uint8_t>(i));
  };
  const auto echo = [&](int i) {
    socket.SendTo(Testbed::HomeAddress(), 7, payload(i));
    tb.sim.RunFor(Milliseconds(50));
  };
  echo(0);  // Warm-up: fills the ARP caches along the path.
  ASSERT_EQ(echoes.size(), 1u);

  constexpr int kEchoes = 20;
  const Packet::Stats before = Packet::stats();
  const uint64_t tunneled_before = tb.home_agent->counters().packets_tunneled;
  const uint64_t reverse_before = tb.home_agent->counters().reverse_decapsulated;
  for (int i = 1; i <= kEchoes; ++i) {
    echo(i);
  }
  const Packet::Stats after = Packet::stats();
  ASSERT_EQ(echoes.size(), 1u + kEchoes);
  for (int i = 1; i <= kEchoes; ++i) {
    EXPECT_EQ(echoes[static_cast<size_t>(i)], payload(i)) << "echo " << i;
  }
  // Both tunnels really carried every echo.
  EXPECT_EQ(tb.home_agent->counters().packets_tunneled - tunneled_before,
            static_cast<uint64_t>(kEchoes));
  EXPECT_EQ(tb.home_agent->counters().reverse_decapsulated - reverse_before,
            static_cast<uint64_t>(kEchoes));
  EXPECT_EQ(after.copies - before.copies, 0u);
  EXPECT_EQ(after.cow_breaks - before.cow_breaks, 0u);
  EXPECT_LE(after.allocations - before.allocations, 2u * kEchoes);
}

}  // namespace
}  // namespace msn
