// Unit tests for ARP: resolution, retries, proxy ARP, gratuitous ARP and its
// repeat series, cache maintenance, and teardown with events pending — the
// mechanisms the home agent's interception relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/node/node.h"
#include "src/sim/simulator.h"

namespace msn {
namespace {

// A proxy owner backed by a set of (device, address) pairs, standing in for
// the home agent's bound homes: `arp` proxies exactly the pairs in the set.
class ProxySet {
 public:
  explicit ProxySet(ArpService& arp) : arp_(arp) {
    arp_.SetProxyOwner([this](NetDevice* device, Ipv4Address ip) {
      return entries_.count({device, ip}) > 0;
    });
  }
  ~ProxySet() { arp_.ClearProxyOwner(); }
  ProxySet(const ProxySet&) = delete;
  ProxySet& operator=(const ProxySet&) = delete;

  void Add(NetDevice* device, Ipv4Address ip) { entries_.emplace(device, ip); }
  void Remove(NetDevice* device, Ipv4Address ip) { entries_.erase({device, ip}); }

 private:
  ArpService& arp_;
  std::set<std::pair<NetDevice*, Ipv4Address>> entries_;
};

class ArpFixture : public ::testing::Test {
 protected:
  ArpFixture()
      : sim_(3), seg_(sim_, "seg", EthernetMediumParams()), a_(sim_, "a"), b_(sim_, "b"),
        c_(sim_, "c") {
    a_dev_ = a_.AddEthernet("eth0", &seg_);
    b_dev_ = b_.AddEthernet("eth0", &seg_);
    c_dev_ = c_.AddEthernet("eth0", &seg_);
    for (NetDevice* dev : {static_cast<NetDevice*>(a_dev_), static_cast<NetDevice*>(b_dev_),
                           static_cast<NetDevice*>(c_dev_)}) {
      dev->ForceUp();
    }
    a_.ConfigureInterface(a_dev_, "10.0.0.1/24");
    b_.ConfigureInterface(b_dev_, "10.0.0.2/24");
    c_.ConfigureInterface(c_dev_, "10.0.0.3/24");
  }

  Simulator sim_;
  BroadcastMedium seg_;
  Node a_, b_, c_;
  EthernetDevice* a_dev_;
  EthernetDevice* b_dev_;
  EthernetDevice* c_dev_;
};

TEST_F(ArpFixture, BasicResolution) {
  std::optional<MacAddress> resolved;
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 2),
                           [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, b_dev_->mac());
  // And the responder learned the requester's mapping (it was the target).
  EXPECT_EQ(b_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 1)), a_dev_->mac());
}

TEST_F(ArpFixture, CachedResolutionIsSynchronous) {
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), b_dev_->mac());
  bool called = false;
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 2),
                           [&](std::optional<MacAddress> mac) {
                             called = true;
                             EXPECT_EQ(*mac, b_dev_->mac());
                           });
  EXPECT_TRUE(called);
  EXPECT_EQ(a_.stack().arp().counters().requests_sent, 0u);
}

TEST_F(ArpFixture, RetriesThenFails) {
  std::optional<MacAddress> resolved = MacAddress::FromId(77);
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 99),
                           [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  EXPECT_FALSE(resolved.has_value());
  EXPECT_EQ(a_.stack().arp().counters().requests_sent,
            static_cast<uint64_t>(ArpService::kMaxRetries));
}

TEST_F(ArpFixture, ConcurrentResolutionsShareOneExchange) {
  int callbacks = 0;
  for (int i = 0; i < 3; ++i) {
    a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 2),
                             [&](std::optional<MacAddress> mac) {
                               EXPECT_TRUE(mac.has_value());
                               ++callbacks;
                             });
  }
  sim_.Run();
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(a_.stack().arp().counters().requests_sent, 1u);
}

TEST_F(ArpFixture, ProxyArpAnswersForAbsentHost) {
  // b proxies for 10.0.0.50 (as a home agent proxies for an away MH).
  ProxySet proxies(b_.stack().arp());
  proxies.Add(b_dev_, Ipv4Address(10, 0, 0, 50));
  std::optional<MacAddress> resolved;
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 50),
                           [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, b_dev_->mac());
  EXPECT_EQ(b_.stack().arp().counters().proxy_replies_sent, 1u);

  proxies.Remove(b_dev_, Ipv4Address(10, 0, 0, 50));
  EXPECT_FALSE(b_.stack().arp().IsProxying(b_dev_, Ipv4Address(10, 0, 0, 50)));
}

// With no owner installed (or once it is cleared), nothing is proxied.
TEST_F(ArpFixture, NoProxyOwnerProxiesNothing) {
  ArpService& arp = b_.stack().arp();
  const Ipv4Address ip(10, 0, 0, 50);
  EXPECT_FALSE(arp.IsProxying(b_dev_, ip));
  {
    ProxySet proxies(arp);
    proxies.Add(b_dev_, ip);
    EXPECT_TRUE(arp.IsProxying(b_dev_, ip));
  }
  EXPECT_FALSE(arp.IsProxying(b_dev_, ip));
  std::optional<MacAddress> resolved = MacAddress::FromId(77);
  a_.stack().arp().Resolve(a_dev_, ip, [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  EXPECT_FALSE(resolved.has_value());
  EXPECT_EQ(arp.counters().proxy_replies_sent, 0u);
}

// Proxying is per device: an address proxied on one interface is neither
// reported nor answered for on another interface of the same node, and
// dropping it on one interface leaves the other alone.
TEST_F(ArpFixture, ProxyEntryIsNotReportedForAnotherDevice) {
  BroadcastMedium seg2(sim_, "seg2", EthernetMediumParams());
  Node d(sim_, "d");
  EthernetDevice* d_eth0 = d.AddEthernet("eth0", &seg_);
  EthernetDevice* d_eth1 = d.AddEthernet("eth1", &seg2);
  d_eth0->ForceUp();
  d_eth1->ForceUp();
  d.ConfigureInterface(d_eth0, "10.0.0.4/24");
  d.ConfigureInterface(d_eth1, "10.0.1.4/24");
  const Ipv4Address ip(10, 0, 0, 50);
  ProxySet proxies(d.stack().arp());
  proxies.Add(d_eth1, ip);
  EXPECT_TRUE(d.stack().arp().IsProxying(d_eth1, ip));
  EXPECT_FALSE(d.stack().arp().IsProxying(d_eth0, ip));

  // Asked on eth0's segment, d stays silent.
  std::optional<MacAddress> resolved = MacAddress::FromId(77);
  a_.stack().arp().Resolve(a_dev_, ip, [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  EXPECT_FALSE(resolved.has_value());
  EXPECT_EQ(d.stack().arp().counters().proxy_replies_sent, 0u);
}

TEST_F(ArpFixture, RemovingAProxyEntryOnOneDeviceKeepsTheOther) {
  BroadcastMedium seg2(sim_, "seg2", EthernetMediumParams());
  Node d(sim_, "d");
  EthernetDevice* d_eth0 = d.AddEthernet("eth0", &seg_);
  EthernetDevice* d_eth1 = d.AddEthernet("eth1", &seg2);
  d_eth0->ForceUp();
  d_eth1->ForceUp();
  d.ConfigureInterface(d_eth0, "10.0.0.4/24");
  d.ConfigureInterface(d_eth1, "10.0.1.4/24");
  const Ipv4Address ip(10, 0, 0, 50);
  ArpService& arp = d.stack().arp();
  ProxySet proxies(arp);
  proxies.Add(d_eth0, ip);
  proxies.Add(d_eth1, ip);
  proxies.Remove(d_eth1, ip);
  EXPECT_TRUE(arp.IsProxying(d_eth0, ip));
  EXPECT_FALSE(arp.IsProxying(d_eth1, ip));

  // The surviving entry still answers on its own segment.
  std::optional<MacAddress> resolved;
  a_.stack().arp().Resolve(a_dev_, ip, [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, d_eth0->mac());
  EXPECT_EQ(arp.counters().proxy_replies_sent, 1u);
}

TEST_F(ArpFixture, GratuitousArpUpdatesExistingEntriesOnly) {
  // a has an entry for 10.0.0.2 -> b; c has none.
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), b_dev_->mac());

  // b announces that 10.0.0.2 now maps to a *different* MAC (as the HA does
  // when it takes over a mobile host's address).
  const MacAddress new_mac = c_dev_->mac();
  ArpMessage announce;
  announce.op = ArpOp::kReply;
  announce.sender_mac = new_mac;
  announce.sender_ip = Ipv4Address(10, 0, 0, 2);
  announce.target_mac = MacAddress::Broadcast();
  announce.target_ip = Ipv4Address(10, 0, 0, 2);
  EthernetFrame frame;
  frame.src = c_dev_->mac();
  frame.dst = MacAddress::Broadcast();
  frame.ethertype = EtherType::kArp;
  frame.payload = announce.Serialize();
  c_dev_->Transmit(frame);
  sim_.Run();

  // a's stale entry was voided (updated); c (no prior entry) stays clean.
  EXPECT_EQ(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)), new_mac);
  EXPECT_FALSE(b_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 1)).has_value());
}

TEST_F(ArpFixture, SendGratuitousArpHelper) {
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), MacAddress::FromId(999));
  b_.stack().arp().SendGratuitousArp(b_dev_, Ipv4Address(10, 0, 0, 2));
  sim_.Run();
  EXPECT_EQ(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)), b_dev_->mac());
  EXPECT_EQ(b_.stack().arp().counters().gratuitous_sent, 1u);
}

TEST_F(ArpFixture, EntriesExpire) {
  a_.stack().arp().set_entry_lifetime(Seconds(10));
  std::optional<MacAddress> resolved;
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 2),
                           [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_TRUE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)).has_value());
  sim_.RunFor(Seconds(11));
  EXPECT_FALSE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)).has_value());
}

TEST_F(ArpFixture, RemoveEntry) {
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), b_dev_->mac());
  a_.stack().arp().RemoveEntry(Ipv4Address(10, 0, 0, 2));
  EXPECT_FALSE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)).has_value());
}

TEST_F(ArpFixture, FlushClearsCache) {
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), b_dev_->mac());
  a_.stack().arp().Flush();
  EXPECT_FALSE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)).has_value());
}

// Gratuitous announcements `dev` transmits, as (transmit time, address).
void TapAnnouncements(NetDevice* dev, std::vector<std::pair<Time, Ipv4Address>>& out,
                      Simulator& sim) {
  dev->SetTap([&out, &sim](const EthernetFrame& frame, NetDevice::TapDirection dir) {
    if (dir != NetDevice::TapDirection::kTransmit || frame.ethertype != EtherType::kArp) {
      return;
    }
    auto msg = ArpMessage::Parse(frame.payload.span());
    if (msg && msg->sender_ip == msg->target_ip) {
      out.emplace_back(sim.Now(), msg->sender_ip);
    }
  });
}

// RFC 2002 §4.6: one announcement goes out three times, 400 ms apart.
TEST_F(ArpFixture, AnnouncementRepeatsThreeTimes) {
  std::vector<std::pair<Time, Ipv4Address>> sent;
  TapAnnouncements(b_dev_, sent, sim_);
  const Ipv4Address own(10, 0, 0, 2);
  b_.stack().arp().AnnounceGratuitousArp(b_dev_, own);
  sim_.Run();
  ASSERT_EQ(sent.size(), 3u);
  for (const auto& [when, ip] : sent) {
    EXPECT_EQ(ip, own);
  }
  EXPECT_EQ(sent[1].first - sent[0].first, ArpService::kGratuitousSpacing);
  EXPECT_EQ(sent[2].first - sent[0].first,
            ArpService::kGratuitousSpacing + ArpService::kGratuitousSpacing);
  EXPECT_EQ(b_.stack().arp().counters().gratuitous_sent,
            static_cast<uint64_t>(ArpService::kGratuitousRepeats));
}

// However many addresses are mid-series, the service keeps one repeat event.
TEST_F(ArpFixture, ConcurrentSeriesKeepOneRepeatEvent) {
  ArpService& arp = b_.stack().arp();
  ProxySet proxies(arp);
  for (uint8_t host = 50; host < 60; ++host) {
    proxies.Add(b_dev_, Ipv4Address(10, 0, 0, host));
    arp.AnnounceGratuitousArp(b_dev_, Ipv4Address(10, 0, 0, host));
  }
  sim_.RunFor(Milliseconds(100));  // Every first announcement is on the wire.
  EXPECT_EQ(sim_.pending_events(), 1u);
  sim_.Run();
  EXPECT_EQ(arp.counters().gratuitous_sent, 30u);
}

// A repeat whose claim lapsed is skipped and ends that series; the other
// addresses' series carry on.
TEST_F(ArpFixture, LapsedClaimStopsOnlyItsOwnSeries) {
  std::vector<std::pair<Time, Ipv4Address>> sent;
  TapAnnouncements(b_dev_, sent, sim_);
  ArpService& arp = b_.stack().arp();
  const Ipv4Address dropped(10, 0, 0, 50);
  const Ipv4Address kept(10, 0, 0, 51);
  ProxySet proxies(arp);
  proxies.Add(b_dev_, dropped);
  proxies.Add(b_dev_, kept);
  arp.AnnounceGratuitousArp(b_dev_, dropped);
  arp.AnnounceGratuitousArp(b_dev_, kept);
  sim_.Schedule(Milliseconds(500), [&] { proxies.Remove(b_dev_, dropped); });
  sim_.Run();
  auto frames_for = [&sent](Ipv4Address ip) {
    return std::count_if(sent.begin(), sent.end(), [ip](const auto& s) { return s.second == ip; });
  };
  EXPECT_EQ(frames_for(dropped), 2);
  EXPECT_EQ(frames_for(kept), 3);
}

// A segment with one announcer, for comparing repeat schedules.
struct AnnounceBed {
  AnnounceBed()
      : sim(11), seg(sim, "seg", EthernetMediumParams()), announcer(sim, "ha"),
        listener(sim, "cn"), proxies(announcer.stack().arp()) {
    dev = announcer.AddEthernet("eth0", &seg);
    NetDevice* other = listener.AddEthernet("eth0", &seg);
    dev->ForceUp();
    other->ForceUp();
    announcer.ConfigureInterface(dev, "10.0.0.1/24");
    listener.ConfigureInterface(other, "10.0.0.2/24");
    for (uint8_t host = 50; host < 54; ++host) {
      proxies.Add(dev, Ipv4Address(10, 0, 0, host));
    }
    dev->SetTap([this](const EthernetFrame& frame, NetDevice::TapDirection dir) {
      auto msg = ArpMessage::Parse(frame.payload.span());
      if (dir == NetDevice::TapDirection::kTransmit && msg) {
        log.push_back(std::to_string(sim.Now().nanos()) + " tx " + msg->sender_ip.ToString());
      }
    });
  }

  // Logs a marker with how many announcements were sent before it ran, which
  // pins each repeat's position among same-time events.
  void Marker(Duration at, int id) {
    sim.Schedule(at, [this, id] {
      log.push_back(std::to_string(sim.Now().nanos()) + " marker " + std::to_string(id) +
                    " after " +
                    std::to_string(announcer.stack().arp().counters().gratuitous_sent));
    });
  }

  Simulator sim;
  BroadcastMedium seg;
  Node announcer;
  Node listener;
  ProxySet proxies;
  EthernetDevice* dev = nullptr;
  std::vector<std::string> log;
};

// The reference: every repeat is its own Schedule call, made right after the
// send it follows.
void ReferenceAnnounce(AnnounceBed& bed, Ipv4Address ip, int remaining) {
  bed.announcer.stack().arp().SendGratuitousArp(bed.dev, ip);
  if (remaining > 1) {
    bed.sim.Schedule(ArpService::kGratuitousSpacing,
                     [&bed, ip, remaining] { ReferenceAnnounce(bed, ip, remaining - 1); });
  }
}

// Series announced at interleaved and tied times, with markers scheduled at
// the same instants before and after them, fire exactly where separately
// scheduled repeats would have.
TEST(ArpRepeatOrderTest, RepeatsFireWhereSeparateEventsWould) {
  auto script = [](AnnounceBed& bed, const std::function<void(Ipv4Address)>& announce) {
    const Ipv4Address h50(10, 0, 0, 50);
    const Ipv4Address h51(10, 0, 0, 51);
    const Ipv4Address h52(10, 0, 0, 52);
    const Ipv4Address h53(10, 0, 0, 53);
    // Markers scheduled now precede every repeat at their instant; markers
    // scheduled by an announcing event follow that event's reservations.
    bed.Marker(Milliseconds(400), 0);  // Ahead of h50's and h51's first repeats.
    bed.sim.Schedule(Duration(), [&bed, &announce, h50, h51] {
      announce(h50);
      announce(h51);                     // Tied with h50.
      bed.Marker(Milliseconds(400), 1);  // Behind both first repeats.
    });
    bed.sim.Schedule(Milliseconds(150), [&announce, h52] { announce(h52); });
    bed.Marker(Milliseconds(550), 2);  // Ahead of h52's first repeat.
    bed.Marker(Milliseconds(800), 3);  // Ahead of every 800 ms repeat.
    // Runs at 400 ms ahead of h50's and h51's first repeats, so h53's first
    // repeat lands at 800 ms ahead of their second ones.
    bed.sim.Schedule(Milliseconds(400), [&bed, &announce, h53] {
      bed.Marker(Milliseconds(400), 4);  // Ahead of h53's first repeat.
      announce(h53);
      bed.Marker(Milliseconds(400), 5);  // Between it and h50's and h51's.
    });
    bed.Marker(Milliseconds(950), 6);  // Ahead of h52's last repeat.
    bed.Marker(Milliseconds(1200), 7);
  };

  AnnounceBed service_bed;
  const std::function<void(Ipv4Address)> service = [&service_bed](Ipv4Address ip) {
    service_bed.announcer.stack().arp().AnnounceGratuitousArp(service_bed.dev, ip);
  };
  script(service_bed, service);
  service_bed.sim.Run();

  AnnounceBed reference_bed;
  const std::function<void(Ipv4Address)> reference = [&reference_bed](Ipv4Address ip) {
    ReferenceAnnounce(reference_bed, ip, ArpService::kGratuitousRepeats);
  };
  script(reference_bed, reference);
  reference_bed.sim.Run();

  EXPECT_EQ(service_bed.announcer.stack().arp().counters().gratuitous_sent, 12u);
  EXPECT_EQ(service_bed.log, reference_bed.log);
  EXPECT_EQ(service_bed.sim.events_executed(), reference_bed.sim.events_executed());
}

// Destroying a node mid-resolution and mid-repeat-series cancels its ARP
// events: nothing pending points at the dead service, and the run goes on.
TEST_F(ArpFixture, DestroyedNodeCancelsPendingArpEvents) {
  auto doomed = std::make_unique<Node>(sim_, "doomed");
  EthernetDevice* dev = doomed->AddEthernet("eth0", &seg_);
  dev->ForceUp();
  doomed->ConfigureInterface(dev, "10.0.0.9/24");
  bool resolved = false;
  doomed->stack().arp().Resolve(dev, Ipv4Address(10, 0, 0, 99),
                                [&](std::optional<MacAddress>) { resolved = true; });
  doomed->stack().arp().AnnounceGratuitousArp(dev, Ipv4Address(10, 0, 0, 9));
  sim_.RunFor(Milliseconds(100));  // Both frames are out; retry and repeat pend.
  ASSERT_EQ(sim_.pending_events(), 2u);
  doomed.reset();
  EXPECT_EQ(sim_.pending_events(), 0u);
  bool later_fired = false;
  sim_.Schedule(Seconds(5), [&] { later_fired = true; });
  sim_.Run();
  EXPECT_TRUE(later_fired);
  EXPECT_FALSE(resolved);
}

}  // namespace
}  // namespace msn
