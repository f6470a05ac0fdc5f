// End-to-end tests of the replicated home-agent pair (DESIGN.md §14):
// binding mutations mirror onto the standby, a fail-stop primary crash
// triggers backup takeover and MH failover, a rejoining primary demotes
// itself and resyncs from the replica instead of forcing an identification
// resync, and crashed agents account for every packet they black-hole.
#include <gtest/gtest.h>

#include <memory>

#include "src/fault/fault_schedule.h"
#include "src/node/icmp.h"
#include "src/node/udp.h"
#include "src/topo/testbed.h"

namespace msn {
namespace {

class FailoverFixture : public ::testing::Test {
 protected:
  void Build(uint16_t lifetime_sec = 8) {
    TestbedConfig cfg;
    cfg.realistic_delays = false;
    cfg.with_backup_ha = true;
    cfg.mh_lifetime_sec = lifetime_sec;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
    tb_->StartMobileOnWired(50);
    ASSERT_TRUE(tb_->mobile->registered());
  }

  bool PingCorrespondent() {
    Pinger pinger(tb_->mh->stack());
    bool ok = false;
    pinger.Ping(tb_->ch_address(), Seconds(2),
                [&](const Pinger::Result& result) { ok = result.success; });
    tb_->RunFor(Seconds(2) + Milliseconds(100));
    return ok;
  }

  double Metric(const char* name) { return tb_->metrics.ReadValue(name).value_or(0); }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(FailoverFixture, MutationsMirrorOntoStandby) {
  Build();
  tb_->RunFor(Seconds(1));

  // The registration reached the primary and streamed to the standby.
  ASSERT_TRUE(tb_->home_agent->serving());
  ASSERT_FALSE(tb_->backup_agent->serving());
  const auto mirrored = tb_->backup_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_EQ(mirrored->care_of, tb_->mobile->care_of());

  EXPECT_EQ(Metric("ha.role"), 1.0);
  EXPECT_EQ(Metric("ha.backup.role"), 0.0);
  EXPECT_EQ(Metric("ha.backup.bindings"), 1.0);
  EXPECT_GE(Metric("repl.mutations_sent"), 1.0);
  EXPECT_GE(Metric("repl.backup.mutations_applied"), 1.0);
  EXPECT_EQ(Metric("ha.sync_lag"), 0.0);  // Everything sent has been acked.
  EXPECT_EQ(tb_->ServingAgentCount(), 1);
}

TEST_F(FailoverFixture, PermanentCrashFailsOverToBackup) {
  Build();
  tb_->RunFor(Seconds(1));

  tb_->home_agent->BeginOutage(HaOutageKind::kFailStop);
  tb_->RunFor(Seconds(8));

  // Backup took over in a fresh epoch and is the only serving agent.
  EXPECT_FALSE(tb_->home_agent->serving());
  ASSERT_TRUE(tb_->backup_agent->serving());
  EXPECT_GE(tb_->backup_agent->epoch(), 2u);
  EXPECT_EQ(tb_->ServingAgentCount(), 1);
  EXPECT_EQ(Metric("repl.backup.takeovers"), 1.0);
  EXPECT_EQ(Metric("ha.backup.role"), 1.0);

  // The MH escalated its dying renewals into a failover to the backup.
  ASSERT_TRUE(tb_->mobile->registered());
  EXPECT_EQ(tb_->mobile->active_home_agent(), Testbed::BackupHaAddress());
  EXPECT_GE(tb_->mobile->counters().failover_count, 1u);
  EXPECT_GE(Metric("mh.failover_count"), 1.0);
  const auto binding = tb_->backup_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->care_of, tb_->mobile->care_of());

  // Renewals that raced the crash were dropped with reason accounting, and
  // no identification resync was needed: the replica already knew the MH.
  EXPECT_GE(tb_->home_agent->counters().requests_dropped_crashed, 1u);
  EXPECT_EQ(tb_->backup_agent->counters().resync_denials, 0u);
  EXPECT_EQ(tb_->mobile->counters().resyncs, 0u);

  // End-to-end traffic flows through the backup's tunnel.
  EXPECT_TRUE(PingCorrespondent());
  EXPECT_GE(tb_->backup_agent->counters().packets_tunneled +
                tb_->backup_agent->counters().reverse_decapsulated,
            1u);
}

TEST_F(FailoverFixture, RejoiningPrimaryResyncsFromReplica) {
  Build();

  FaultSchedule schedule;
  schedule.HaCrash(Seconds(1), *tb_->home_agent, /*rejoin_after=*/Seconds(4));
  schedule.Arm(tb_->sim);
  tb_->RunFor(Seconds(15));

  // The rejoined primary came back wiped, demoted itself to standby, and
  // rebuilt its table from the replica's snapshot — not from the MH.
  EXPECT_FALSE(tb_->home_agent->crashed());
  EXPECT_EQ(tb_->home_agent->role(), HaRole::kStandby);
  ASSERT_TRUE(tb_->backup_agent->serving());
  EXPECT_EQ(tb_->ServingAgentCount(), 1);
  EXPECT_EQ(tb_->home_agent->counters().bindings_wiped, 1u);
  EXPECT_GE(Metric("repl.snapshots_applied"), 1.0);
  const auto mirrored = tb_->home_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_EQ(mirrored->care_of, tb_->mobile->care_of());

  // No resync round trip was forced on the mobile host.
  EXPECT_EQ(tb_->home_agent->counters().resync_denials, 0u);
  EXPECT_EQ(tb_->backup_agent->counters().resync_denials, 0u);
  EXPECT_EQ(tb_->mobile->counters().resyncs, 0u);
  ASSERT_TRUE(tb_->mobile->registered());
  EXPECT_EQ(tb_->mobile->active_home_agent(), Testbed::BackupHaAddress());
}

TEST_F(FailoverFixture, ServiceOutageDemotesPrimaryOnHeal) {
  Build();

  // A muted-but-alive primary: the backup takes over on heartbeat silence;
  // when the primary's service returns it hears the higher epoch and steps
  // down rather than splitting the brain.
  FaultSchedule schedule;
  schedule.HaOutage(Milliseconds(500), *tb_->home_agent, Seconds(4), HaOutageKind::kService);
  schedule.Arm(tb_->sim);
  tb_->RunFor(Seconds(12));

  EXPECT_EQ(tb_->home_agent->role(), HaRole::kStandby);
  ASSERT_TRUE(tb_->backup_agent->serving());
  EXPECT_EQ(tb_->ServingAgentCount(), 1);
  EXPECT_GE(Metric("repl.backup.takeovers"), 1.0);
  EXPECT_GE(Metric("repl.stepdowns"), 1.0);
  ASSERT_TRUE(tb_->mobile->registered());
  EXPECT_EQ(tb_->mobile->active_home_agent(), Testbed::BackupHaAddress());
}

// Proxy ARP follows the serving role, not the binding table: the standby
// holds the mirrored binding but does not proxy it until it takes over; the
// crashed primary stops proxying at once, and a deregistration ends the
// new primary's proxying.
TEST_F(FailoverFixture, ProxyArpFollowsTheServingRole) {
  Build();
  tb_->RunFor(Seconds(1));
  NetDevice* primary_dev = tb_->home_agent->config().home_device;
  NetDevice* backup_dev = tb_->backup_agent->config().home_device;
  const ArpService& primary_arp = tb_->home_agent->node().stack().arp();
  const ArpService& backup_arp = tb_->backup_agent->node().stack().arp();
  const Ipv4Address home = Testbed::HomeAddress();
  ASSERT_TRUE(tb_->backup_agent->HasBinding(home));
  EXPECT_TRUE(primary_arp.IsProxying(primary_dev, home));
  EXPECT_FALSE(backup_arp.IsProxying(backup_dev, home));

  tb_->home_agent->BeginOutage(HaOutageKind::kFailStop);
  EXPECT_TRUE(tb_->home_agent->HasBinding(home));  // Kept until rejoin.
  EXPECT_FALSE(primary_arp.IsProxying(primary_dev, home));

  tb_->RunFor(Seconds(8));
  ASSERT_TRUE(tb_->backup_agent->serving());
  EXPECT_TRUE(backup_arp.IsProxying(backup_dev, home));
  EXPECT_FALSE(backup_arp.IsProxying(tb_->backup_agent->node().FindDevice("lo"), home));

  tb_->MoveMhEthernetTo(tb_->net135.get());
  bool at_home = false;
  tb_->mobile->AttachHome([&](bool ok) { at_home = ok; });
  tb_->RunFor(Seconds(3));
  ASSERT_TRUE(at_home);
  EXPECT_FALSE(tb_->backup_agent->HasBinding(home));
  EXPECT_FALSE(backup_arp.IsProxying(backup_dev, home));
}

TEST_F(FailoverFixture, DeregistrationReplicates) {
  Build();
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(tb_->backup_agent->HasBinding(Testbed::HomeAddress()));

  tb_->MoveMhEthernetTo(tb_->net135.get());
  bool home = false;
  tb_->mobile->AttachHome([&](bool ok) { home = ok; });
  tb_->RunFor(Seconds(3));
  ASSERT_TRUE(home);

  // The deregistration removed the binding on the serving agent and the
  // kRemove mutation removed the mirror.
  EXPECT_FALSE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
  EXPECT_FALSE(tb_->backup_agent->HasBinding(Testbed::HomeAddress()));
  EXPECT_EQ(Metric("ha.backup.bindings"), 0.0);
}

// Fail-stop drop accounting without a replica: packets that arrive at a dead
// agent are counted by reason, not silently lost.
TEST(HaCrashAccountingTest, CrashedAgentCountsItsDrops) {
  TestbedConfig cfg;
  cfg.realistic_delays = false;
  cfg.mh_lifetime_sec = 10;
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);
  ASSERT_TRUE(tb.mobile->registered());

  // Prime the path so the CH->home flow is established, then crash.
  UdpSocket probe(tb.ch->stack());
  ASSERT_TRUE(probe.Bind(5600));
  probe.SendTo(Testbed::HomeAddress(), 5601, std::vector<uint8_t>{1, 2, 3});
  tb.RunFor(Seconds(1));

  tb.home_agent->BeginOutage(HaOutageKind::kFailStop);
  ASSERT_TRUE(tb.home_agent->crashed());
  for (int i = 0; i < 5; ++i) {
    probe.SendTo(Testbed::HomeAddress(), 5601, std::vector<uint8_t>{1, 2, 3});
    tb.RunFor(Milliseconds(200));
  }
  tb.RunFor(Seconds(5));

  EXPECT_GE(tb.home_agent->counters().tunnel_drops_crashed, 5u);

  // Recovery from a crash-with-restart still works without a replica: the
  // wiped agent forces one identification resync, the classic path.
  tb.home_agent->EndOutage();
  tb.RunFor(Seconds(20));
  EXPECT_TRUE(tb.mobile->registered());
  EXPECT_GE(tb.home_agent->counters().bindings_wiped, 1u);
  EXPECT_GE(tb.home_agent->counters().resync_denials, 1u);
  EXPECT_GE(tb.mobile->counters().resyncs, 1u);
}

}  // namespace
}  // namespace msn
