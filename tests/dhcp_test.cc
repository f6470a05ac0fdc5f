// Unit tests for DHCP: message formats, lease lifecycle, reassignment
// avoidance, retries, and integration with the mobile host's foreign attach.
#include <gtest/gtest.h>

#include "src/dhcp/dhcp.h"
#include "src/topo/testbed.h"

namespace msn {
namespace {

TEST(DhcpMessageTest, RoundTrip) {
  DhcpMessage msg;
  msg.op = DhcpOp::kOffer;
  msg.xid = 0xcafebabe;
  msg.client_mac = MacAddress::FromId(42);
  msg.yiaddr = Ipv4Address(36, 8, 0, 100);
  msg.server = Ipv4Address(36, 8, 0, 1);
  msg.gateway = Ipv4Address(36, 8, 0, 1);
  msg.prefix_len = 16;
  msg.lease_sec = 600;

  auto bytes = msg.Serialize();
  ASSERT_EQ(bytes.size(), DhcpMessage::kSize);
  auto parsed = DhcpMessage::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, DhcpOp::kOffer);
  EXPECT_EQ(parsed->xid, 0xcafebabeu);
  EXPECT_EQ(parsed->client_mac, MacAddress::FromId(42));
  EXPECT_EQ(parsed->yiaddr, Ipv4Address(36, 8, 0, 100));
  EXPECT_EQ(parsed->prefix_len, 16);
  EXPECT_EQ(parsed->lease_sec, 600u);
}

TEST(DhcpMessageTest, RejectsBadOpAndTruncation) {
  DhcpMessage msg;
  auto bytes = msg.Serialize();
  bytes[0] = 0;
  EXPECT_FALSE(DhcpMessage::Parse(bytes).has_value());
  bytes[0] = 7;
  EXPECT_FALSE(DhcpMessage::Parse(bytes).has_value());
  bytes[0] = 1;
  bytes.resize(10);
  EXPECT_FALSE(DhcpMessage::Parse(bytes).has_value());
}

class DhcpFixture : public ::testing::Test {
 protected:
  DhcpFixture() {
    TestbedConfig cfg;
    cfg.seed = 21;
    cfg.realistic_delays = false;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
    // Put the MH's Ethernet on net 36.8 and bring it up, unconfigured.
    tb_->mh->stack().routes().RemoveForDevice(tb_->mh_eth);
    tb_->mh->stack().UnconfigureAddress(tb_->mh_eth);
    tb_->MoveMhEthernetTo(tb_->net8.get());
    tb_->ForceEthUp();
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(DhcpFixture, AcquireLease) {
  DhcpClient client(*tb_->mh, tb_->mh_eth);
  std::optional<DhcpLease> lease;
  client.Acquire([&](std::optional<DhcpLease> l) { lease = l; });
  tb_->RunFor(Seconds(2));
  ASSERT_TRUE(lease.has_value());
  EXPECT_TRUE(Testbed::Net8().Contains(lease->address));
  EXPECT_EQ(lease->gateway, Testbed::RouterOn8());
  EXPECT_EQ(lease->mask.prefix_len(), 16);
  EXPECT_EQ(tb_->dhcp_net8->active_leases(), 1u);
  EXPECT_EQ(tb_->dhcp_net8->counters().acks, 1u);
}

TEST_F(DhcpFixture, SameClientKeepsItsAddress) {
  DhcpClient client(*tb_->mh, tb_->mh_eth);
  Ipv4Address first;
  client.Acquire([&](std::optional<DhcpLease> l) { first = l->address; });
  tb_->RunFor(Seconds(2));
  Ipv4Address second;
  client.Acquire([&](std::optional<DhcpLease> l) { second = l->address; });
  tb_->RunFor(Seconds(2));
  EXPECT_EQ(first, second);
  EXPECT_EQ(tb_->dhcp_net8->active_leases(), 1u);
}

TEST_F(DhcpFixture, ReassignmentAvoidance) {
  // Paper §5.1: a well-written server avoids reassigning a released address
  // for as long as possible. Release an address and verify the next
  // allocation to a *different* client gets a different one.
  DhcpClient client(*tb_->mh, tb_->mh_eth);
  Ipv4Address first;
  client.Acquire([&](std::optional<DhcpLease> l) { first = l->address; });
  tb_->RunFor(Seconds(2));
  client.Release();
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(tb_->dhcp_net8->active_leases(), 0u);
  // The released address went to the back of the free list.
  EXPECT_NE(tb_->dhcp_net8->PeekNextFree(), first);
}

TEST_F(DhcpFixture, AcquisitionTimesOutWithoutServer) {
  tb_->dhcp_net8.reset();  // Kill the server.
  DhcpClient client(*tb_->mh, tb_->mh_eth);
  bool completed = false;
  bool got_lease = true;
  client.Acquire([&](std::optional<DhcpLease> l) {
    completed = true;
    got_lease = l.has_value();
  });
  // The initial DISCOVER and kMaxRetries re-sends, kRetryInterval apart,
  // give up at 8 s.
  tb_->RunFor(Seconds(10));
  EXPECT_TRUE(completed);
  EXPECT_FALSE(got_lease);
}

TEST_F(DhcpFixture, AutoRenewalRefreshesLease) {
  DhcpServer::Config sc;
  sc.device = static_cast<NetDevice*>(tb_->router->FindDevice("eth8"));
  sc.subnet = Testbed::Net8();
  sc.gateway = Testbed::RouterOn8();
  sc.lease_time = Seconds(10);
  tb_->dhcp_net8 = std::make_unique<DhcpServer>(*tb_->router, sc);
  // Two servers now answer (old default one was replaced) — reset first.
  // (The ctor above replaced the unique_ptr, destroying the old server.)

  DhcpClient client(*tb_->mh, tb_->mh_eth);
  std::optional<DhcpLease> lease;
  client.Acquire([&](std::optional<DhcpLease> l) { lease = l; });
  tb_->RunFor(Seconds(2));
  ASSERT_TRUE(lease.has_value());
  // Renewals at half lease time keep the lease alive well past its original
  // expiry.
  tb_->RunFor(Seconds(30));
  EXPECT_GE(client.renewals(), 2u);
  EXPECT_EQ(tb_->dhcp_net8->active_leases(), 1u);
}

TEST_F(DhcpFixture, PoolExhaustion) {
  DhcpServer::Config sc;
  sc.device = static_cast<NetDevice*>(tb_->router->FindDevice("eth8"));
  sc.subnet = Testbed::Net8();
  sc.gateway = Testbed::RouterOn8();
  sc.pool_size = 1;
  tb_->dhcp_net8 = std::make_unique<DhcpServer>(*tb_->router, sc);

  DhcpClient first(*tb_->mh, tb_->mh_eth);
  std::optional<DhcpLease> lease1;
  first.Acquire([&](std::optional<DhcpLease> l) { lease1 = l; });
  tb_->RunFor(Seconds(2));
  ASSERT_TRUE(lease1.has_value());

  // A second client (distinct MAC) on the same segment gets nothing.
  Node other(tb_->sim, "other");
  EthernetDevice* odev = other.AddEthernet("eth0", tb_->net8.get());
  odev->ForceUp();
  DhcpClient second(other, odev);
  bool completed = false;
  bool got = true;
  second.Acquire([&](std::optional<DhcpLease> l) {
    completed = true;
    got = l.has_value();
  });
  tb_->RunFor(Seconds(10));  // Past the 8 s give-up.
  EXPECT_TRUE(completed);
  EXPECT_FALSE(got);
  EXPECT_GE(tb_->dhcp_net8->counters().pool_exhausted, 1u);
}

TEST_F(DhcpFixture, DhcpDrivenForeignAttach) {
  // The full paper flow: acquire a care-of address via DHCP, then register
  // it with the home agent.
  DhcpClient client(*tb_->mh, tb_->mh_eth);
  bool attached = false;
  client.Acquire([&](std::optional<DhcpLease> lease) {
    ASSERT_TRUE(lease.has_value());
    MobileHost::Attachment att;
    att.device = tb_->mh_eth;
    att.care_of = lease->address;
    att.mask = lease->mask;
    att.gateway = lease->gateway;
    tb_->mobile->AttachForeign(att, [&](bool ok) { attached = ok; });
  });
  tb_->RunFor(Seconds(5));
  EXPECT_TRUE(attached);
  EXPECT_TRUE(tb_->mobile->registered());
  auto binding = tb_->home_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(binding.has_value());
  EXPECT_TRUE(Testbed::Net8().Contains(binding->care_of));
}

}  // namespace
}  // namespace msn
