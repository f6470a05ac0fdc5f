// Tests for the fault-injection subsystem (src/fault/): Gilbert-Elliott burst
// loss, duplication, reordering, corruption, blackouts, the declarative fault
// schedule, determinism, and the tagged drop accounting in medium + pcap.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/node/icmp.h"
#include "src/node/udp.h"
#include "src/topo/testbed.h"
#include "src/tracing/pcap.h"
#include "src/tracing/probe.h"

namespace msn {
namespace {

class FaultInjectionFixture : public ::testing::Test {
 protected:
  void Build(uint64_t seed = 7, uint16_t lifetime_sec = 300) {
    TestbedConfig cfg;
    cfg.seed = seed;
    cfg.realistic_delays = false;
    cfg.mh_lifetime_sec = lifetime_sec;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
    tb_->StartMobileOnWired(50);
    ASSERT_TRUE(tb_->mobile->registered());
    injector_ = std::make_unique<FaultInjector>(tb_->sim, *tb_->net8);
  }

  // One blocking ping MH -> CH through the mobile-IP path.
  bool PingCorrespondent(Duration timeout = Seconds(2)) {
    Pinger pinger(tb_->mh->stack());
    bool done = false;
    bool ok = false;
    pinger.Ping(tb_->ch_address(), timeout, [&](const Pinger::Result& result) {
      done = true;
      ok = result.success;
    });
    tb_->RunFor(timeout + Milliseconds(100));
    EXPECT_TRUE(done);
    return ok;
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<FaultInjector> injector_;
};

TEST_F(FaultInjectionFixture, BurstLossDropsFramesAndIsAccountedAsFault) {
  Build();
  FaultProfile profile;
  profile.burst_loss = GilbertElliottParams{0.2, 0.3, 0.0, 1.0};
  injector_->SetProfile(profile);

  ProbeEchoServer echo(*tb_->mh, 7);
  ProbeSender sender(*tb_->ch, ProbeSender::Config{Testbed::HomeAddress(), 7,
                                                   Milliseconds(50)});
  sender.Start();
  tb_->RunFor(Seconds(10));
  sender.Stop();
  tb_->RunFor(Seconds(1));

  EXPECT_GT(injector_->counters().burst_drops, 0u);
  EXPECT_GT(sender.TotalLost(), 0u);
  EXPECT_GT(sender.received(), 0u);  // The good state lets traffic through.
  // Loss accounting: net8 has no random loss, so every medium drop must be
  // attributed to the injector, never mixed into frames_dropped.
  EXPECT_EQ(tb_->net8->counters().frames_dropped, 0u);
  EXPECT_EQ(tb_->net8->counters().frames_fault_dropped,
            injector_->counters().burst_drops);
}

TEST_F(FaultInjectionFixture, CorruptionIsCaughtByChecksums) {
  Build();
  UdpSocket server(tb_->ch->stack());
  ASSERT_TRUE(server.Bind(7777));
  uint64_t received = 0;
  server.SetReceiveHandler(
      [&](const std::vector<uint8_t>&, const UdpSocket::Metadata&) { ++received; });
  UdpSocket client(tb_->mh->stack());

  // Pre-warm ARP caches along the path so corrupted ARP frames cannot stall
  // the experiment.
  for (int i = 0; i < 3; ++i) {
    client.SendTo(tb_->ch_address(), 7777, std::vector<uint8_t>{0xaa});
    tb_->RunFor(Milliseconds(200));
  }
  const uint64_t received_clean = received;
  EXPECT_GT(received_clean, 0u);

  FaultProfile profile;
  profile.corrupt_probability = 0.5;
  injector_->SetProfile(profile);
  for (int i = 0; i < 40; ++i) {
    client.SendTo(tb_->ch_address(), 7777, std::vector<uint8_t>{0xbb, static_cast<uint8_t>(i)});
    tb_->RunFor(Milliseconds(100));
  }
  injector_->ClearProfile();
  tb_->RunFor(Seconds(1));

  EXPECT_GT(injector_->counters().corruptions, 0u);
  // A flipped bit must never be delivered as valid data: either the IP
  // header checksum or the UDP checksum catches it and the packet is
  // dropped as bad.
  const uint64_t bad = tb_->router->stack().counters().drop_bad_packet +
                       tb_->ch->stack().counters().drop_bad_packet +
                       tb_->mh->stack().counters().drop_bad_packet;
  EXPECT_GT(bad, 0u);
  EXPECT_LT(received - received_clean, 40u);

  // Clean channel again: traffic flows.
  const uint64_t before = received;
  client.SendTo(tb_->ch_address(), 7777, std::vector<uint8_t>{0xcc});
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(received, before + 1);
}

TEST_F(FaultInjectionFixture, DuplicatedRegistrationRepliesAreRejected) {
  Build(/*seed=*/7, /*lifetime_sec=*/5);
  FaultProfile profile;
  profile.duplicate_probability = 1.0;
  injector_->SetProfile(profile);

  // Two renewal cycles under full duplication: every request reaches the HA
  // twice (the second copy is denied as a replay) and every reply reaches
  // the MH twice (the second copy must be dropped, not re-processed).
  tb_->RunFor(Seconds(10));

  EXPECT_GT(injector_->counters().duplicates, 0u);
  EXPECT_GE(tb_->mobile->counters().duplicate_replies_dropped +
                tb_->mobile->counters().stale_replies_dropped,
            1u);
  EXPECT_TRUE(tb_->mobile->registered());
  auto binding = tb_->home_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->care_of, tb_->mobile->care_of());
}

TEST_F(FaultInjectionFixture, ReorderingDelaysButDeliversTraffic) {
  Build();
  FaultProfile profile;
  profile.reorder_probability = 1.0;
  profile.reorder_extra_latency = Milliseconds(300);
  injector_->SetProfile(profile);

  ProbeEchoServer echo(*tb_->mh, 7);
  ProbeSender sender(*tb_->ch, ProbeSender::Config{Testbed::HomeAddress(), 7,
                                                   Milliseconds(100)});
  sender.Start();
  tb_->RunFor(Seconds(5));
  sender.Stop();
  // Generous drain: queued copies may carry up to 2 x 300 ms extra per hop.
  tb_->RunFor(Seconds(3));

  EXPECT_GT(injector_->counters().reorders, 0u);
  EXPECT_EQ(sender.TotalLost(), 0u);  // Reordering delays, never drops.
  EXPECT_GT(sender.received(), 0u);
}

TEST_F(FaultInjectionFixture, BlackoutSilencesTheLinkThenRecovers) {
  Build();
  ASSERT_TRUE(PingCorrespondent());

  injector_->BlackoutFor(Seconds(2));
  EXPECT_TRUE(injector_->blackout_active());
  EXPECT_FALSE(PingCorrespondent(Seconds(1)));
  EXPECT_GT(injector_->counters().blackout_drops, 0u);

  tb_->RunFor(Seconds(2));  // Past the scheduled end.
  EXPECT_FALSE(injector_->blackout_active());
  EXPECT_TRUE(PingCorrespondent());
}

TEST_F(FaultInjectionFixture, PcapTagsInjectedDrops) {
  Build();
  PacketCapture capture;
  capture.AttachMediumDrops(tb_->sim, tb_->net8.get());

  injector_->BlackoutFor(Seconds(1));
  PingCorrespondent(Seconds(1));
  tb_->RunFor(Seconds(1));

  const std::string trace = capture.Render();
  EXPECT_NE(trace.find("dropped: fault"), std::string::npos);
  EXPECT_GT(capture.size(), 0u);
  EXPECT_EQ(tb_->net8->counters().frames_fault_dropped,
            injector_->counters().blackout_drops);
}

// Same seed, same schedule -> bit-identical event trace and fault counters.
TEST(FaultScheduleTest, ChaosRunsAreDeterministic) {
  auto run = [] {
    TestbedConfig cfg;
    cfg.seed = 42;
    cfg.realistic_delays = false;
    Testbed tb(cfg);
    tb.StartMobileAtHome();
    tb.StartMobileOnWired(50);
    FaultInjector injector(tb.sim, *tb.net8);

    FaultProfile bursty;
    bursty.burst_loss = GilbertElliottParams{0.1, 0.25, 0.0, 1.0};
    bursty.duplicate_probability = 0.05;
    FaultSchedule schedule;
    schedule.Profile(Seconds(1), injector, bursty)
        .Blackout(Seconds(3), injector, Milliseconds(1500))
        .ClearProfile(Seconds(6), injector);
    schedule.Arm(tb.sim);

    ProbeEchoServer echo(*tb.mh, 7);
    ProbeSender sender(*tb.ch, ProbeSender::Config{Testbed::HomeAddress(), 7,
                                                   Milliseconds(50)});
    sender.Start();
    tb.RunFor(Seconds(8));
    sender.Stop();
    tb.RunFor(Seconds(1));

    return std::make_tuple(schedule.Trace(), injector.counters().frames_seen,
                           injector.counters().burst_drops,
                           injector.counters().blackout_drops,
                           injector.counters().duplicates, sender.received(),
                           sender.TotalLost(),
                           tb.net8->counters().frames_fault_dropped);
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(std::get<0>(first), std::get<0>(second));
  EXPECT_FALSE(std::get<0>(first).empty());
  EXPECT_EQ(first, second);
}

TEST(FaultScheduleTest, LogRecordsFiredEventsInOrder) {
  Simulator sim(3);
  MediumParams params;
  BroadcastMedium medium(sim, "m0", params);
  FaultInjector injector(sim, medium);

  FaultSchedule schedule;
  int custom_fired = 0;
  schedule.Blackout(Seconds(1), injector, Milliseconds(500))
      .At(Seconds(2), "custom event", [&] { ++custom_fired; });
  EXPECT_EQ(schedule.pending_events(), 2u);
  schedule.Arm(sim);
  sim.RunFor(Seconds(3));

  EXPECT_EQ(custom_fired, 1);
  ASSERT_EQ(schedule.log().size(), 2u);
  EXPECT_EQ(schedule.log()[0].at, Time::Zero() + Seconds(1));
  EXPECT_EQ(schedule.log()[1].description, "custom event");
  EXPECT_FALSE(injector.blackout_active());
}

}  // namespace
}  // namespace msn
