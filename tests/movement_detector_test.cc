// Tests for movement detection / automatic interface selection (paper §6).
#include <gtest/gtest.h>

#include "src/fault/fault_injector.h"
#include "src/mip/movement_detector.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"

namespace msn {
namespace {

// Constant loss as a degenerate Gilbert-Elliott profile (never bursts).
FaultProfile ConstantLoss(double loss) {
  GilbertElliottParams ge;
  ge.p_enter_burst = 0.0;
  ge.p_exit_burst = 1.0;
  ge.loss_good = loss;
  ge.loss_bad = loss;
  FaultProfile profile;
  profile.burst_loss = ge;
  return profile;
}

class MovementFixture : public ::testing::Test {
 protected:
  void Build(uint64_t seed = 61) {
    TestbedConfig cfg;
    cfg.seed = seed;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
    // Hot-standby configuration: MH visits net 36.8 on the wire with the
    // radio also up and addressed.
    tb_->StartMobileOnWired(50);
    tb_->ForceRadioUp();
    tb_->mh->stack().ConfigureAddress(tb_->mh_radio, Ipv4Address(36, 134, 0, 70),
                                      SubnetMask(16));

    MovementDetector::Config mc;
    mc.probe_interval = Milliseconds(500);
    mc.probe_timeout = Milliseconds(450);
    mc.hysteresis_rounds = 3;
    detector_ = std::make_unique<MovementDetector>(*tb_->mobile, mc);
    detector_->AddCandidate({tb_->WiredAttachment(50), /*preference=*/10});
    detector_->AddCandidate({tb_->WirelessAttachment(70), /*preference=*/1});
    detector_->Start();
  }

  // Kills the wired path by detaching the MH's Ethernet from its segment.
  void KillWired() { tb_->MoveMhEthernetTo(nullptr); }
  void RestoreWired() { tb_->MoveMhEthernetTo(tb_->net8.get()); }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<MovementDetector> detector_;
};

TEST_F(MovementFixture, StableLinkCausesNoSwitching) {
  Build();
  tb_->RunFor(Seconds(10));
  EXPECT_EQ(detector_->counters().switches, 0u);
  EXPECT_EQ(tb_->mobile->attachment().device, tb_->mh_eth);
  // Both links are seen as healthy.
  EXPECT_LT(detector_->LossEstimate("eth0"), 0.1);
  EXPECT_LT(detector_->LossEstimate("strip0"), 0.25);  // Radio has rare drops.
}

TEST_F(MovementFixture, FailsOverToRadioWhenWiredDies) {
  Build();
  tb_->RunFor(Seconds(5));
  ASSERT_EQ(tb_->mobile->attachment().device, tb_->mh_eth);

  KillWired();
  tb_->RunFor(Seconds(15));
  EXPECT_GE(detector_->counters().failovers, 1u);
  EXPECT_EQ(tb_->mobile->attachment().device, tb_->mh_radio);
  EXPECT_TRUE(tb_->mobile->registered());
  auto binding = tb_->home_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(binding.has_value());
  EXPECT_TRUE(Testbed::Net134().Contains(binding->care_of));
}

TEST_F(MovementFixture, UpgradesBackWhenWiredReturns) {
  Build();
  tb_->RunFor(Seconds(5));
  KillWired();
  tb_->RunFor(Seconds(15));
  ASSERT_EQ(tb_->mobile->attachment().device, tb_->mh_radio);

  RestoreWired();
  tb_->RunFor(Seconds(15));
  EXPECT_GE(detector_->counters().upgrades, 1u);
  EXPECT_EQ(tb_->mobile->attachment().device, tb_->mh_eth);
  EXPECT_TRUE(tb_->mobile->registered());
}

TEST_F(MovementFixture, HysteresisSuppressesSingleDropFlapping) {
  Build();
  tb_->RunFor(Seconds(5));
  // One lost probe round must not trigger a switch.
  KillWired();
  tb_->RunFor(Milliseconds(600));  // ~1 probe round.
  RestoreWired();
  tb_->RunFor(Seconds(10));
  EXPECT_EQ(detector_->counters().switches, 0u);
  EXPECT_EQ(tb_->mobile->attachment().device, tb_->mh_eth);
}

TEST_F(MovementFixture, NotifiesUpperLayersWithLinkCharacteristics) {
  Build();
  std::vector<LinkCharacteristics> notifications;
  detector_->SetAttachmentChangeHandler(
      [&](const LinkCharacteristics& link, bool registered) {
        EXPECT_TRUE(registered);
        notifications.push_back(link);
      });
  tb_->RunFor(Seconds(5));
  KillWired();
  tb_->RunFor(Seconds(15));
  ASSERT_GE(notifications.size(), 1u);
  // The paper's §6: upper layers learn the new link's very different
  // characteristics (35 kb/s radio vs 10 Mb/s Ethernet).
  EXPECT_EQ(notifications.back().device_name, "strip0");
  EXPECT_EQ(notifications.back().bandwidth_bps, StripRadioDevice::kDefaultBandwidthBps);
  EXPECT_LT(notifications.back().loss_estimate, 0.4);
  EXPECT_GT(notifications.back().last_probe_rtt.ToMillisF(), 100.0);  // Radio RTT.
}

// A host parked at a cell boundary sees its loss estimate oscillate around
// the usable threshold. Without the min_residency guard the detector bounces
// between wired and radio on every swing; with it, switching is bounded.
class BoundaryFixture : public MovementFixture {
 protected:
  void BuildWithResidency(Duration min_residency) {
    TestbedConfig cfg;
    cfg.seed = 61;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
    tb_->StartMobileOnWired(50);
    tb_->ForceRadioUp();
    tb_->mh->stack().ConfigureAddress(tb_->mh_radio, Ipv4Address(36, 134, 0, 70),
                                      SubnetMask(16));

    MovementDetector::Config mc;
    mc.probe_interval = Milliseconds(500);
    mc.probe_timeout = Milliseconds(450);
    mc.hysteresis_rounds = 3;
    mc.switch_cooldown = Milliseconds(500);  // Isolate the residency guard.
    mc.min_residency = min_residency;
    detector_ = std::make_unique<MovementDetector>(*tb_->mobile, mc);
    detector_->AddCandidate({tb_->WiredAttachment(50), /*preference=*/10});
    detector_->AddCandidate({tb_->WirelessAttachment(70), /*preference=*/1});
    detector_->Start();
  }

  // Swings the wired link's quality across the usable threshold: total loss
  // for half a period (EWMA climbs past the threshold, link reads dead), then
  // clean for half a period (EWMA decays back, link reads usable again).
  void OscillateWired(int cycles, Duration half_period) {
    FaultInjector inject(tb_->sim, *tb_->net8, &tb_->metrics);
    for (int i = 0; i < cycles; ++i) {
      inject.SetProfile(ConstantLoss(1.0));
      tb_->RunFor(half_period);
      inject.ClearProfile();
      tb_->RunFor(half_period);
    }
  }
};

TEST_F(BoundaryFixture, OscillatingQualityCausesPingPongWithoutGuard) {
  BuildWithResidency(Duration());  // Guard off.
  tb_->RunFor(Seconds(5));
  OscillateWired(5, Seconds(3));
  // Every swing is long enough to defeat hysteresis: the detector ping-pongs.
  EXPECT_GE(detector_->counters().switches, 4u);
}

TEST_F(BoundaryFixture, MinResidencySuppressesPingPong) {
  BuildWithResidency(Seconds(30));
  tb_->RunFor(Seconds(5));
  OscillateWired(5, Seconds(3));
  // The guard pins the host to its cell through the swings: at most the one
  // switch permitted when the first residency window lapses.
  EXPECT_LE(detector_->counters().switches, 1u);
  EXPECT_GE(detector_->counters().pingpong_suppressed, 1u);
  // Voluntary moves were vetoed, but the host is still on a working link.
  EXPECT_TRUE(tb_->mobile->registered());
}

// Regression: a registration that times out leaves the MH detached and the
// protocol never retries on its own. The detector must re-attach through the
// (locally usable) current link once the path to the home agent returns.
TEST_F(MovementFixture, ReattachesAfterRegistrationTimeout) {
  // The HA must live on its own home-network host (not the router) so a
  // home-subnet blackout actually severs the registration path.
  TestbedConfig cfg;
  cfg.seed = 61;
  cfg.ha_on_router = false;
  tb_ = std::make_unique<Testbed>(cfg);
  tb_->StartMobileAtHome();
  tb_->StartMobileOnWired(50);
  tb_->ForceRadioUp();
  tb_->mh->stack().ConfigureAddress(tb_->mh_radio, Ipv4Address(36, 134, 0, 70),
                                    SubnetMask(16));
  MovementDetector::Config mc;
  mc.probe_interval = Milliseconds(500);
  mc.probe_timeout = Milliseconds(450);
  mc.hysteresis_rounds = 3;
  detector_ = std::make_unique<MovementDetector>(*tb_->mobile, mc);
  detector_->AddCandidate({tb_->WiredAttachment(50), /*preference=*/10});
  detector_->AddCandidate({tb_->WirelessAttachment(70), /*preference=*/1});
  detector_->Start();

  tb_->RunFor(Seconds(3));
  ASSERT_TRUE(tb_->mobile->registered());

  // Black out the home subnet and force a fresh registration by failing the
  // MH over to the radio. The RegReq crosses net 36.135 and dies there; the
  // radio's own gateway keeps answering probes, so the link stays "usable"
  // while the registration exhausts its retransmits.
  FaultInjector inject_home(tb_->sim, *tb_->net135, &tb_->metrics);
  inject_home.SetProfile(ConstantLoss(1.0));
  KillWired();
  tb_->RunFor(Seconds(30));
  EXPECT_FALSE(tb_->mobile->registered());

  // Home subnet heals: the recovery path re-registers through the current
  // link without any physical movement.
  inject_home.ClearProfile();
  tb_->RunFor(Seconds(25));
  EXPECT_TRUE(tb_->mobile->registered());
  EXPECT_GE(detector_->counters().reattaches, 1u);
}

TEST_F(MovementFixture, TrafficContinuesAcrossAutomaticFailover) {
  Build();
  ProbeEchoServer echo(*tb_->mh, 7);
  ProbeSender sender(*tb_->ch,
                     ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(250)});
  sender.Start();
  tb_->RunFor(Seconds(3));
  KillWired();
  tb_->RunFor(Seconds(15));
  sender.Stop();
  tb_->RunFor(Seconds(2));
  // Echoes resumed after the automatic switch; the outage is bounded by the
  // detection hysteresis (~1.5 s) plus re-registration.
  EXPECT_EQ(tb_->mobile->attachment().device, tb_->mh_radio);
  const uint64_t lost = sender.TotalLost();
  EXPECT_GE(sender.received(), 40u);
  EXPECT_LE(lost, 14u);
  EXPECT_GE(lost, 2u);  // The detection window is not free.
}

// The detector owns association: a covered candidate device that is down is
// powered and addressed at no bring-up cost, one out of coverage is taken
// down, and the serving device is left alone either way.
TEST(MovementDetectorAssociation, ReportLinkPowersCoveredDevicesButNotTheServingOne) {
  TestbedConfig cfg;
  cfg.seed = 61;
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);
  ASSERT_EQ(tb.mh_radio->state(), NetDevice::State::kDown);
  MovementDetector detector(*tb.mobile, MovementDetector::Config{});
  detector.AddCandidate({tb.WiredAttachment(50), /*preference=*/2});
  detector.AddCandidate({tb.WirelessAttachment(70), /*preference=*/1});
  IpStack& stack = tb.mh->stack();

  detector.ReportLink(tb.mh_radio, -60.0, /*in_coverage=*/true);
  EXPECT_TRUE(tb.mh_radio->IsUp());
  EXPECT_EQ(stack.GetInterfaceAddress(tb.mh_radio), Ipv4Address(36, 134, 0, 70));

  detector.ReportLink(tb.mh_eth, -200.0, /*in_coverage=*/false);
  EXPECT_TRUE(tb.mh_eth->IsUp());
  EXPECT_EQ(tb.mobile->attachment().device, tb.mh_eth);

  detector.ReportLink(tb.mh_radio, -200.0, /*in_coverage=*/false);
  EXPECT_EQ(tb.mh_radio->state(), NetDevice::State::kDown);
  EXPECT_FALSE(stack.GetInterfaceAddress(tb.mh_radio).has_value());
}

}  // namespace
}  // namespace msn
