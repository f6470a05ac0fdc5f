// Unit tests for the mobile host: registration state machine, retransmission,
// renewal, policy routing decisions, and the two-roles rule.
#include <gtest/gtest.h>

#include <vector>

#include "src/mip/calibration.h"
#include "src/node/udp.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"

namespace msn {
namespace {

class MobileHostFixture : public ::testing::Test {
 protected:
  void Build(bool realistic = false, uint64_t seed = 6) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.realistic_delays = realistic;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(MobileHostFixture, StartsAtHomeWithoutMobilityMachinery) {
  Build();
  EXPECT_TRUE(tb_->mobile->at_home());
  EXPECT_FALSE(tb_->mobile->registered());
  // Home address lives on the physical device, not the VIF.
  EXPECT_EQ(tb_->mh->stack().GetInterfaceAddress(tb_->mh_eth), Testbed::HomeAddress());
  EXPECT_FALSE(tb_->mh->stack().GetInterfaceAddress(tb_->mobile->vif()).has_value());
}

TEST_F(MobileHostFixture, ForeignAttachMovesHomeAddressToVif) {
  Build();
  tb_->StartMobileOnWired(50);
  EXPECT_TRUE(tb_->mobile->registered());
  EXPECT_EQ(tb_->mh->stack().GetInterfaceAddress(tb_->mobile->vif()), Testbed::HomeAddress());
  EXPECT_EQ(tb_->mh->stack().GetInterfaceAddress(tb_->mh_eth), Ipv4Address(36, 8, 0, 50));
  EXPECT_EQ(tb_->mobile->care_of(), Ipv4Address(36, 8, 0, 50));
  EXPECT_EQ(tb_->mobile->counters().registrations_accepted, 1u);
}

TEST_F(MobileHostFixture, RegistrationRetransmitsWhenHomeAgentSilent) {
  Build();
  // Cut the home network off: detach the router's home device so requests die.
  static_cast<LinkDevice*>(tb_->router->FindDevice("eth8"))->AttachTo(nullptr);

  tb_->MoveMhEthernetTo(tb_->net8.get());
  bool completed = false;
  bool result = true;
  tb_->mobile->AttachForeign(tb_->WiredAttachment(50), [&](bool ok) {
    completed = true;
    result = ok;
  });
  tb_->RunFor(Seconds(30));
  EXPECT_TRUE(completed);
  EXPECT_FALSE(result);
  EXPECT_EQ(tb_->mobile->state(), MobileHost::State::kDetached);
  EXPECT_EQ(tb_->mobile->counters().registrations_timed_out, 1u);
  // Initial send + kMaxRetransmits.
  EXPECT_EQ(tb_->mobile->counters().registrations_sent,
            static_cast<uint64_t>(1 + MobileHost::kMaxRetransmits));
  EXPECT_EQ(tb_->mobile->last_timeline().retransmissions, MobileHost::kMaxRetransmits);
}

TEST_F(MobileHostFixture, SupersededAttachReportsFailure) {
  Build();
  tb_->MoveMhEthernetTo(tb_->net8.get());
  bool first_result = true;
  tb_->mobile->AttachForeign(tb_->WiredAttachment(50), [&](bool ok) { first_result = ok; });
  // Immediately supersede before the first completes.
  bool second_result = false;
  tb_->mobile->AttachForeign(tb_->WiredAttachment(51), [&](bool ok) { second_result = ok; });
  tb_->RunFor(Seconds(5));
  EXPECT_FALSE(first_result);
  EXPECT_TRUE(second_result);
  EXPECT_EQ(tb_->mobile->care_of(), Ipv4Address(36, 8, 0, 51));

  // A cold switch superseded while its device is still coming up reports
  // failure exactly once, and the switch that replaced it completes.
  std::vector<bool> cold_results;
  tb_->mobile->ColdSwitchTo(tb_->WirelessAttachment(60),
                            [&](bool ok) { cold_results.push_back(ok); });
  tb_->RunFor(Milliseconds(50));
  ASSERT_EQ(tb_->mh_radio->state(), NetDevice::State::kBringingUp);
  EXPECT_EQ(tb_->mobile->switch_phase(), MobileHost::SwitchPhase::kBringingUp);
  bool replacement_result = false;
  tb_->mobile->ColdSwitchTo(tb_->WiredAttachment(52), [&](bool ok) { replacement_result = ok; });
  tb_->RunFor(Seconds(5));
  EXPECT_EQ(cold_results, std::vector<bool>{false});
  EXPECT_TRUE(replacement_result);
  EXPECT_EQ(tb_->mobile->switch_phase(), MobileHost::SwitchPhase::kSettled);
  EXPECT_EQ(tb_->mobile->care_of(), Ipv4Address(36, 8, 0, 52));
}

TEST_F(MobileHostFixture, AutoRenewalKeepsBindingAlive) {
  TestbedConfig cfg;
  cfg.seed = 6;
  cfg.realistic_delays = false;
  cfg.mh_lifetime_sec = 10;
  tb_ = std::make_unique<Testbed>(cfg);
  tb_->StartMobileAtHome();
  tb_->StartMobileOnWired(50);
  ASSERT_TRUE(tb_->mobile->registered());

  // Run well past several lifetimes: renewals keep the binding.
  tb_->RunFor(Seconds(60));
  EXPECT_TRUE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
  EXPECT_TRUE(tb_->mobile->registered());
  EXPECT_GE(tb_->mobile->counters().renewals, 5u);
  EXPECT_EQ(tb_->home_agent->counters().bindings_expired, 0u);
}

// --- Route policy decisions (the modified ip_rt_route()) ------------------------------

class PolicyRoutingFixture : public MobileHostFixture {
 protected:
  void SetUp() override {
    Build();
    tb_->StartMobileOnWired(50);
  }

  std::optional<RouteDecision> Query(Ipv4Address dst, Ipv4Address src_hint = Ipv4Address::Any(),
                                     bool forwarding = false) {
    return tb_->mh->stack().RouteLookup(RouteQuery{dst, src_hint, forwarding, true});
  }
};

TEST_F(PolicyRoutingFixture, DefaultPolicyTunnelsThroughVif) {
  auto d = Query(tb_->ch_address());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->device, tb_->mobile->vif());
  EXPECT_EQ(d->src, Testbed::HomeAddress());
}

TEST_F(PolicyRoutingFixture, HomeSourceHintStillSubjectToMobileIp) {
  // Paper: "If the application has already set the source address to the
  // home IP address, this too means the packet is subject to mobile IP."
  auto d = Query(tb_->ch_address(), Testbed::HomeAddress());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->device, tb_->mobile->vif());
}

TEST_F(PolicyRoutingFixture, LocalRoleSourceBypassesMobility) {
  auto d = Query(tb_->ch_address(), Ipv4Address(36, 8, 0, 50));
  ASSERT_TRUE(d.has_value());
  // Normal routing: out the physical device via the default route.
  EXPECT_EQ(d->device, tb_->mh_eth);
  EXPECT_EQ(d->src, Ipv4Address(36, 8, 0, 50));
}

TEST_F(PolicyRoutingFixture, TrianglePolicyGoesDirect) {
  tb_->mobile->policy_table().Set(Subnet(tb_->ch_address(), SubnetMask(32)),
                                  MobilePolicy::kTriangle);
  auto d = Query(tb_->ch_address());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->device, tb_->mh_eth);
  EXPECT_EQ(d->src, Testbed::HomeAddress());
  // CH is on the visited subnet: on-link, no gateway.
  EXPECT_TRUE(d->next_hop.IsAny());
}

TEST_F(PolicyRoutingFixture, TriangleToRemoteDestinationUsesGateway) {
  const Ipv4Address remote(171, 64, 0, 20);
  tb_->mobile->policy_table().Set(Subnet(remote, SubnetMask(32)), MobilePolicy::kTriangle);
  auto d = Query(remote);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->device, tb_->mh_eth);
  EXPECT_EQ(d->next_hop, Testbed::RouterOn8());
}

TEST_F(PolicyRoutingFixture, TriangleLookupsCountOncePerSentPacket) {
  const Subnet ch(tb_->ch_address(), SubnetMask(32));
  tb_->mobile->policy_table().Set(ch, MobilePolicy::kTriangle);
  auto entry_hits = [&] {
    for (const MobilePolicyTable::Entry& e : tb_->mobile->policy_table().entries()) {
      if (e.dest == ch) {
        return e.hits;
      }
    }
    ADD_FAILURE() << "triangle entry vanished";
    return uint64_t{0};
  };
  const uint64_t hits_before = entry_hits();
  const uint64_t triangle_before = tb_->mobile->counters().packets_triangle_out;
  const RouteQuery sent{tb_->ch_address(), Ipv4Address::Any(), /*forwarding=*/false,
                        /*advisory=*/false};

  constexpr int kSent = 5;
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE(tb_->mh->stack().RouteLookup(sent).has_value());
  }
  EXPECT_EQ(entry_hits(), hits_before + kSent);
  EXPECT_EQ(tb_->mobile->counters().packets_triangle_out, triangle_before + kSent);

  // Advisory lookups (source selection, oracle sampling) send nothing and
  // count nothing.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Query(tb_->ch_address()).has_value());
    ASSERT_TRUE(tb_->mh->stack().RouteLookupUncached(sent).has_value());
  }
  EXPECT_EQ(entry_hits(), hits_before + kSent);
  EXPECT_EQ(tb_->mobile->counters().packets_triangle_out, triangle_before + kSent);
}

TEST_F(PolicyRoutingFixture, DirectPolicyUsesCareOfSource) {
  tb_->mobile->policy_table().Set(Subnet(tb_->ch_address(), SubnetMask(32)),
                                  MobilePolicy::kDirect);
  auto d = Query(tb_->ch_address());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->device, tb_->mh_eth);
  EXPECT_EQ(d->src, Ipv4Address(36, 8, 0, 50));
}

TEST_F(PolicyRoutingFixture, ForwardingQueriesBypassPolicy) {
  auto d = Query(tb_->ch_address(), Ipv4Address::Any(), /*forwarding=*/true);
  // The MH is not a router; the normal table answers (default route).
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->device, tb_->mh_eth);
}

TEST_F(PolicyRoutingFixture, AtHomeNoOverride) {
  tb_->MoveMhEthernetTo(tb_->net135.get());
  bool done = false;
  tb_->mobile->AttachHome([&](bool ok) { done = ok; });
  tb_->RunFor(Seconds(3));
  ASSERT_TRUE(done);
  auto d = Query(tb_->ch_address());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->device, tb_->mh_eth);
  EXPECT_EQ(d->src, Testbed::HomeAddress());
  EXPECT_EQ(d->next_hop, Testbed::RouterOn135());
}

TEST_F(PolicyRoutingFixture, EncapDirectWrapsToCorrespondent) {
  tb_->mobile->policy_table().Set(Subnet(tb_->ch_address(), SubnetMask(32)),
                                  MobilePolicy::kEncapDirect);
  // Send a UDP datagram and verify the CH received an IPIP packet addressed
  // straight to it (outer dst = CH, outer src = care-of).
  int ipip_at_ch = 0;
  Ipv4Address outer_src, inner_src;
  tb_->ch->stack().RegisterProtocolHandler(
      IpProto::kIpIp,
      [&](const Ipv4Header& h, const Packet& payload, NetDevice*) {
        ++ipip_at_ch;
        outer_src = h.src;
        auto inner = Ipv4Datagram::Parse(payload.span());
        ASSERT_TRUE(inner.has_value());
        inner_src = inner->header.src;
      });
  UdpSocket socket(tb_->mh->stack());
  socket.SendTo(tb_->ch_address(), 9999, {1, 2, 3});
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(ipip_at_ch, 1);
  EXPECT_EQ(outer_src, Ipv4Address(36, 8, 0, 50));
  EXPECT_EQ(inner_src, Testbed::HomeAddress());
  EXPECT_EQ(tb_->mobile->counters().packets_encap_direct_out, 1u);
}

// --- Timeline sanity under exact timing -------------------------------------------------

TEST_F(MobileHostFixture, TimelineStepsMatchCalibrationMeans) {
  // With zero kernel delays the timeline decomposes into exactly the
  // calibrated step costs plus wire time.
  Build(/*realistic=*/false);
  tb_->StartMobileOnWired(50);
  bool ok = false;
  tb_->mobile->SwitchCareOfAddress(Ipv4Address(36, 8, 0, 51), [&](bool r) { ok = r; });
  tb_->RunFor(Seconds(2));
  ASSERT_TRUE(ok);
  const auto& tl = tb_->mobile->last_timeline();
  const Calibration cal = Calibration::Default();
  // Each step cost is a clamped normal around its mean; verify loose bands.
  const double pre_ms = tl.PreRegistration().ToMillisF();
  EXPECT_GT(pre_ms, 1.0);
  EXPECT_LT(pre_ms, 3.0);
  const double reqrep_ms = tl.RequestReply().ToMillisF();
  // Only HA processing (1.48 ms) + wire remains without kernel delays.
  EXPECT_GT(reqrep_ms, 1.0);
  EXPECT_LT(reqrep_ms, 2.5);
  const double post_ms = tl.PostRegistration().ToMillisF();
  EXPECT_GT(post_ms, 0.4);
  EXPECT_LT(post_ms, 1.6);
  (void)cal;
}

}  // namespace
}  // namespace msn
