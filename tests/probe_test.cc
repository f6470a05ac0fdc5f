// Unit tests for the measurement harness itself (probe stream, echo server,
// loss-window accounting) — the instruments behind E1/E2 deserve their own
// verification.
#include <gtest/gtest.h>

#include "src/topo/testbed.h"
#include "src/tracing/probe.h"

namespace msn {
namespace {

class ProbeFixture : public ::testing::Test {
 protected:
  ProbeFixture() {
    TestbedConfig cfg;
    cfg.seed = 111;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(ProbeFixture, CountsSentAndReceived) {
  ProbeEchoServer echo(*tb_->mh, 7);
  ProbeSender sender(*tb_->ch, ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(20)});
  sender.Start();
  tb_->RunFor(Seconds(1));
  sender.Stop();
  tb_->RunFor(Seconds(1));

  // First probe fires immediately, then one per 20 ms: 51 in one second.
  EXPECT_EQ(sender.sent(), 51u);
  EXPECT_EQ(sender.received(), 51u);
  EXPECT_EQ(sender.TotalLost(), 0u);
  EXPECT_EQ(echo.echoes_sent(), 51u);
}

TEST_F(ProbeFixture, RttsArePlausibleAndWindowed) {
  ProbeEchoServer echo(*tb_->mh, 7);
  ProbeSender sender(*tb_->ch, ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(50)});
  const Time start = tb_->sim.Now();
  sender.Start();
  tb_->RunFor(Seconds(1));
  sender.Stop();
  tb_->RunFor(Seconds(1));

  const auto all = sender.RttsInWindow(Time::Zero(), Time::Max());
  ASSERT_EQ(all.size(), sender.received());
  for (Duration rtt : all) {
    EXPECT_GT(rtt.ToMillisF(), 1.0);   // Kernel pipelines alone cost ~4 ms.
    EXPECT_LT(rtt.ToMillisF(), 50.0);  // Same-campus Ethernet path.
  }
  // Window halves partition the samples.
  const Time mid = start + Milliseconds(500);
  EXPECT_EQ(sender.RttsInWindow(Time::Zero(), mid).size() +
                sender.RttsInWindow(mid, Time::Max()).size(),
            all.size());
}

TEST_F(ProbeFixture, LostInWindowIsolatesAnOutage) {
  ProbeEchoServer echo(*tb_->mh, 7);
  ProbeSender sender(*tb_->ch, ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(20)});
  sender.Start();
  tb_->RunFor(Seconds(1));

  // Hard outage: the MH's device vanishes for 300 ms.
  const Time outage_start = tb_->sim.Now();
  tb_->mh_eth->TakeDown();
  tb_->RunFor(Milliseconds(300));
  tb_->ForceEthUp();
  const Time outage_end = tb_->sim.Now();
  tb_->RunFor(Seconds(1));
  sender.Stop();
  tb_->RunFor(Seconds(1));

  // ~15 probes fell in the outage; allow edge effects for in-flight probes.
  const uint64_t in_window =
      sender.LostInWindow(outage_start - Milliseconds(20), outage_end);
  EXPECT_GE(in_window, 13u);
  EXPECT_LE(in_window, 17u);
  EXPECT_EQ(sender.TotalLost(), sender.LostInWindow(Time::Zero(), Time::Max()));
  // Before the outage, nothing was lost.
  EXPECT_EQ(sender.LostInWindow(Time::Zero(), outage_start - Milliseconds(20)), 0u);
}

TEST_F(ProbeFixture, DuplicateEchoesNotDoubleCounted) {
  // Two echo servers on different ports behave independently; unknown seq
  // numbers and duplicate echoes are ignored.
  ProbeEchoServer echo(*tb_->mh, 7);
  ProbeSender sender(*tb_->ch, ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(100)});
  sender.Start();
  tb_->RunFor(Milliseconds(500));
  sender.Stop();
  tb_->RunFor(Seconds(1));
  EXPECT_LE(sender.received(), sender.sent());
  ASSERT_EQ(sender.records().size(), sender.sent());
  for (const ProbeSender::ProbeRecord& rec : sender.records()) {
    if (rec.echoed_at.has_value()) {
      EXPECT_GE(*rec.echoed_at, rec.sent_at);
    }
  }
}

}  // namespace
}  // namespace msn
