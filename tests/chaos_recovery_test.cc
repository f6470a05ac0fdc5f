// Chaos tests: after any scheduled fault clears, the mobile host must
// converge back to kRegistered with a consistent HA binding — eventual
// recovery as an invariant. Also covers the backoff satellite (retransmit
// rate bounded under outage) and the expiry-races-renewal satellite.
#include <gtest/gtest.h>

#include <memory>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/mip/movement_detector.h"
#include "src/node/icmp.h"
#include "src/topo/testbed.h"

namespace msn {
namespace {

class ChaosFixture : public ::testing::Test {
 protected:
  void Build(uint64_t seed, uint16_t lifetime_sec) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.realistic_delays = false;
    cfg.mh_lifetime_sec = lifetime_sec;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
    tb_->StartMobileOnWired(50);
    ASSERT_TRUE(tb_->mobile->registered());
  }

  // Replaces the mobile host with one running a modified config; re-attaches
  // on the wired foreign net. (Destroy first so the old instance's teardown
  // does not unhook the new one's stack handlers.)
  void RebuildMobile(const MobileHost::Config& mc) {
    tb_->mobile.reset();
    tb_->mobile = std::make_unique<MobileHost>(*tb_->mh, mc);
    bool ok = false;
    tb_->mobile->AttachForeign(tb_->WiredAttachment(50), [&](bool r) { ok = r; });
    tb_->RunFor(Seconds(3));
    ASSERT_TRUE(ok);
  }

  bool PingCorrespondent() {
    Pinger pinger(tb_->mh->stack());
    bool ok = false;
    pinger.Ping(tb_->ch_address(), Seconds(2),
                [&](const Pinger::Result& result) { ok = result.success; });
    tb_->RunFor(Seconds(2) + Milliseconds(100));
    return ok;
  }

  std::unique_ptr<Testbed> tb_;
};

// The acceptance scenario: home-agent daemon restart (bindings wiped) inside
// an outage window, plus ~30% burst loss on the visited link. The MH must
// come back to kRegistered with the HA binding matching its care-of address
// — zero permanent binding desync — and end-to-end traffic must work.
TEST_F(ChaosFixture, RecoversFromHaRestartUnderBurstLoss) {
  Build(/*seed=*/11, /*lifetime_sec=*/5);
  FaultInjector injector(tb_->sim, *tb_->net8);

  // Stationary burst-loss fraction: p_enter / (p_enter + p_exit) = 0.3.
  FaultProfile bursty;
  bursty.burst_loss = GilbertElliottParams{0.12, 0.28, 0.0, 1.0};

  FaultSchedule schedule;
  schedule.Profile(Duration(), injector, bursty)
      .HaOutage(Milliseconds(500), *tb_->home_agent, Seconds(6), HaOutageKind::kDaemonRestart)
      .ClearProfile(Seconds(15), injector);
  schedule.Arm(tb_->sim);
  tb_->RunFor(Seconds(30));

  // Fault machinery actually fired.
  EXPECT_EQ(tb_->home_agent->counters().bindings_wiped, 1u);
  EXPECT_GE(tb_->home_agent->counters().requests_dropped_outage, 1u);
  EXPECT_EQ(tb_->home_agent->counters().resync_denials, 1u);
  EXPECT_GT(injector.counters().burst_drops, 0u);

  // The MH noticed: binding lapsed mid-renewal, resynced after the restart,
  // and recovered — all visible in counters.
  EXPECT_GE(tb_->mobile->counters().bindings_lost, 1u);
  EXPECT_GE(tb_->mobile->counters().resyncs, 1u);
  EXPECT_GE(tb_->mobile->counters().recoveries, 1u);
  EXPECT_GE(tb_->mobile->counters().retransmissions, 1u);

  // Eventual recovery, with zero permanent binding desync.
  EXPECT_EQ(tb_->mobile->state(), MobileHost::State::kRegistered);
  auto binding = tb_->home_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->care_of, tb_->mobile->care_of());
  EXPECT_TRUE(PingCorrespondent());
}

// Determinism of the full chaos scenario: identical seeds give identical
// traces and identical protocol counters.
TEST(ChaosDeterminismTest, SameSeedSameRecovery) {
  auto run = [] {
    TestbedConfig cfg;
    cfg.seed = 11;
    cfg.realistic_delays = false;
    cfg.mh_lifetime_sec = 5;
    Testbed tb(cfg);
    tb.StartMobileAtHome();
    tb.StartMobileOnWired(50);
    FaultInjector injector(tb.sim, *tb.net8);
    FaultProfile bursty;
    bursty.burst_loss = GilbertElliottParams{0.12, 0.28, 0.0, 1.0};
    FaultSchedule schedule;
    schedule.Profile(Duration(), injector, bursty)
        .HaOutage(Milliseconds(500), *tb.home_agent, Seconds(6), HaOutageKind::kDaemonRestart)
        .ClearProfile(Seconds(15), injector);
    schedule.Arm(tb.sim);
    tb.RunFor(Seconds(30));
    struct Snapshot {
      std::string trace;
      uint64_t sent, resyncs, recoveries, retransmissions, ha_received;
      bool operator==(const Snapshot& o) const {
        return trace == o.trace && sent == o.sent && resyncs == o.resyncs &&
               recoveries == o.recoveries && retransmissions == o.retransmissions &&
               ha_received == o.ha_received;
      }
    };
    return Snapshot{schedule.Trace(), tb.mobile->counters().registrations_sent,
                    tb.mobile->counters().resyncs, tb.mobile->counters().recoveries,
                    tb.mobile->counters().retransmissions,
                    tb.home_agent->counters().requests_received};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_TRUE(first == second);
  EXPECT_FALSE(first.trace.empty());
}

// Satellite: backoff bounds the retransmit rate. During a long HA outage a
// renewing MH with decorrelated-jitter backoff sends far fewer registrations
// than the legacy fixed-interval retransmitter, and still recovers.
TEST_F(ChaosFixture, BackoffBoundsRetransmitRateDuringOutage) {
  auto sends_during_outage = [](bool backoff) {
    TestbedConfig cfg;
    cfg.seed = 13;
    cfg.realistic_delays = false;
    cfg.mh_lifetime_sec = 5;
    Testbed tb(cfg);
    tb.StartMobileAtHome();
    tb.StartMobileOnWired(50);

    MobileHost::Config mc = tb.mobile->config();
    mc.retransmit_backoff = backoff;
    tb.mobile.reset();
    tb.mobile = std::make_unique<MobileHost>(*tb.mh, mc);
    bool ok = false;
    tb.mobile->AttachForeign(tb.WiredAttachment(50), [&](bool r) { ok = r; });
    tb.RunFor(Seconds(3));
    EXPECT_TRUE(ok);

    // Outage spans many renewal retransmissions; no daemon restart.
    FaultSchedule schedule;
    schedule.HaOutage(Seconds(1), *tb.home_agent, Seconds(50), HaOutageKind::kService);
    schedule.Arm(tb.sim);
    const uint64_t sent_before = tb.mobile->counters().registrations_sent;
    tb.RunFor(Seconds(60));
    EXPECT_EQ(tb.mobile->state(), MobileHost::State::kRegistered);
    EXPECT_GE(tb.mobile->counters().recoveries, 1u);
    return tb.mobile->counters().registrations_sent - sent_before;
  };

  const uint64_t with_backoff = sends_during_outage(true);
  const uint64_t fixed_interval = sends_during_outage(false);
  // Fixed 1 s interval: ~1 send/second across the outage. Backoff caps at
  // 8 s waits, so well under half the sends.
  EXPECT_GE(fixed_interval, 40u);
  EXPECT_LE(with_backoff, 20u);
  EXPECT_LT(with_backoff * 2, fixed_interval);
}

// Satellite: HA binding expiry racing an in-flight renewal. A link blackout
// swallows the renewal until after the HA-side lifetime runs out; the HA
// expires the binding, the MH records the loss, and once the link returns
// the still-retrying renewal re-establishes the binding.
TEST_F(ChaosFixture, BindingExpiryRacingInFlightRenewalRecovers) {
  Build(/*seed=*/17, /*lifetime_sec=*/5);
  FaultInjector injector(tb_->sim, *tb_->net8);
  const uint64_t renewals_before = tb_->mobile->counters().renewals;

  // Renewal fires at 0.8 x 5 s = 4 s after registration; black out the link
  // from 3.5 s until 7 s, well past the ~5 s expiry.
  FaultSchedule schedule;
  schedule.Blackout(Milliseconds(3500), injector, Milliseconds(3500));
  schedule.Arm(tb_->sim);
  tb_->RunFor(Seconds(20));

  // The HA expired the binding; the MH noticed and recovered.
  EXPECT_EQ(tb_->home_agent->counters().bindings_expired, 1u);
  EXPECT_EQ(tb_->mobile->counters().bindings_lost, 1u);
  EXPECT_EQ(tb_->mobile->counters().recoveries, 1u);
  // Counter consistency: exactly one expiry produced exactly one loss and
  // one recovery; renewal cycles keep running afterwards (retries within a
  // cycle count as retransmissions, not new renewals).
  EXPECT_EQ(tb_->mobile->counters().bindings_lost,
            tb_->home_agent->counters().bindings_expired);
  EXPECT_EQ(tb_->mobile->counters().recoveries,
            tb_->home_agent->counters().bindings_expired);
  EXPECT_GE(tb_->mobile->counters().renewals - renewals_before, 1u);
  EXPECT_GE(tb_->mobile->counters().retransmissions, 1u);

  EXPECT_EQ(tb_->mobile->state(), MobileHost::State::kRegistered);
  auto binding = tb_->home_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->care_of, tb_->mobile->care_of());
  EXPECT_TRUE(PingCorrespondent());
}

// Satellite: deregistration is hardened too — going home while the link is
// lossy still converges to kAtHome with the binding removed.
TEST_F(ChaosFixture, DeregistrationSurvivesBurstLoss) {
  Build(/*seed=*/21, /*lifetime_sec=*/300);
  FaultInjector injector(tb_->sim, *tb_->net135);
  FaultProfile bursty;
  bursty.burst_loss = GilbertElliottParams{0.15, 0.3, 0.0, 1.0};
  injector.SetProfile(bursty);

  tb_->MoveMhEthernetTo(tb_->net135.get());
  bool done = false;
  bool ok = false;
  tb_->mobile->AttachHome([&](bool r) {
    done = true;
    ok = r;
  });
  tb_->RunFor(Seconds(30));
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(tb_->mobile->state(), MobileHost::State::kAtHome);
  EXPECT_FALSE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
  EXPECT_GE(tb_->home_agent->counters().deregistrations, 1u);
}

// Movement-detector debounce: right after a switch, another dead round does
// not immediately bounce the host to a different network.
TEST_F(ChaosFixture, SwitchCooldownSuppressesImmediateReswitch) {
  Build(/*seed=*/23, /*lifetime_sec=*/300);
  tb_->ForceRadioUp();
  tb_->mh->stack().ConfigureAddress(tb_->mh_radio, Ipv4Address(36, 134, 0, 70),
                                    SubnetMask(16));

  MovementDetector::Config mc;
  mc.probe_interval = Milliseconds(500);
  mc.probe_timeout = Milliseconds(450);
  mc.hysteresis_rounds = 2;
  // Long enough that the radio's loss estimate recovers from the blackout
  // before the window lapses — the hold must outlive the transient.
  mc.switch_cooldown = Seconds(10);
  MovementDetector detector(*tb_->mobile, mc);
  detector.AddCandidate({tb_->WiredAttachment(50), /*preference=*/10});
  detector.AddCandidate({tb_->WirelessAttachment(70), /*preference=*/1});
  detector.Start();
  tb_->RunFor(Seconds(3));

  // Kill the wire: failover to radio.
  tb_->MoveMhEthernetTo(nullptr);
  tb_->RunFor(Seconds(5));
  ASSERT_EQ(tb_->mobile->attachment().device, tb_->mh_radio);
  const uint64_t switches_after_failover = detector.counters().switches;

  // Immediately kill the radio too: inside the cooldown window the detector
  // must hold (suppressed), not blind-switch back to the dead wire.
  FaultInjector radio_fault(tb_->sim, *tb_->radio134);
  radio_fault.BlackoutFor(Seconds(2));
  tb_->RunFor(Seconds(2));
  EXPECT_EQ(detector.counters().switches, switches_after_failover);
  EXPECT_GE(detector.counters().suppressed_switches, 1u);

  // Once the radio recovers and the cooldown lapses, the MH is still (or
  // again) usable on the radio.
  tb_->RunFor(Seconds(12));
  EXPECT_TRUE(tb_->mobile->registered());
  EXPECT_EQ(tb_->mobile->attachment().device, tb_->mh_radio);
}

}  // namespace
}  // namespace msn
