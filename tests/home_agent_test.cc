// Unit tests for the home agent: registration validation, binding lifecycle,
// proxy ARP behaviour, lifetime expiry (and its one-timer expiry heap),
// replay rejection, owner teardown with events still pending, and the event
// heap's size under a registrant fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/mip/calibration.h"
#include "src/mip/home_agent.h"
#include "src/mip/reg_load.h"
#include "src/node/udp.h"
#include "src/topo/testbed.h"
#include "src/util/assert.h"

namespace msn {
namespace {

// Drives the HA with hand-built registration requests from a host on the
// home subnet (36.135.0.77), mimicking a mobile host without using the
// MobileHost class.
class HomeAgentFixture : public ::testing::Test {
 protected:
  HomeAgentFixture() {
    TestbedConfig cfg;
    cfg.seed = 5;
    cfg.realistic_delays = false;  // Exact, fast control-plane behaviour.
    tb_ = std::make_unique<Testbed>(cfg);

    // A standalone prober on the home subnet.
    prober_ = std::make_unique<Node>(tb_->sim, "prober");
    dev_ = prober_->AddEthernet("eth0", tb_->net135.get());
    dev_->ForceUp();
    prober_->ConfigureInterface(dev_, "36.135.0.77/16");
    prober_->AddDefaultRoute(Testbed::RouterOn135(), dev_);

    socket_ = std::make_unique<UdpSocket>(prober_->stack());
    MSN_CHECK(socket_->Bind(0)) << "test socket";
    socket_->SetReceiveHandler(
        [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata&) {
          last_reply_ = RegistrationReply::Parse(data);
          ++replies_;
        });
  }

  RegistrationRequest MakeRequest(Ipv4Address home, Ipv4Address careof, uint16_t lifetime,
                                  uint64_t id) {
    RegistrationRequest req;
    req.flags = kMipFlagDecapsulateSelf;
    req.lifetime_sec = lifetime;
    req.home_address = home;
    req.home_agent = tb_->home_agent_address();
    req.care_of_address = careof;
    req.identification = id;
    return req;
  }

  void SendRequest(const RegistrationRequest& req) {
    socket_->SendTo(tb_->home_agent_address(), kMipRegistrationPort, req.Serialize());
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<Node> prober_;
  EthernetDevice* dev_ = nullptr;
  std::unique_ptr<UdpSocket> socket_;
  std::optional<RegistrationReply> last_reply_;
  int replies_ = 0;
};

TEST_F(HomeAgentFixture, AcceptsValidRegistration) {
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_.has_value());
  EXPECT_TRUE(last_reply_->accepted());
  EXPECT_EQ(last_reply_->lifetime_sec, 300);
  EXPECT_EQ(last_reply_->identification, 1u);
  auto binding = tb_->home_agent->GetBinding(Testbed::HomeAddress());
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->care_of, Ipv4Address(36, 8, 0, 50));
  // Proxy ARP is in place on the home device.
  EXPECT_TRUE(tb_->router->stack().arp().IsProxying(tb_->router->FindDevice("eth135"),
                                                    Testbed::HomeAddress()));
}

TEST_F(HomeAgentFixture, ClampsExcessiveLifetime) {
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 65000, 1));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_.has_value());
  EXPECT_TRUE(last_reply_->accepted());
  EXPECT_EQ(last_reply_->lifetime_sec, HomeAgent::kMaxLifetimeSec);
}

TEST_F(HomeAgentFixture, DeniesForeignHomeAddress) {
  SendRequest(MakeRequest(Ipv4Address(99, 1, 2, 3), Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_.has_value());
  EXPECT_EQ(last_reply_->code, MipReplyCode::kDeniedUnknownHomeAddress);
  EXPECT_EQ(tb_->home_agent->binding_count(), 0u);
  EXPECT_EQ(tb_->home_agent->counters().registrations_denied, 1u);
}

TEST_F(HomeAgentFixture, AuthorizationCannotExtendServiceOutsideHomeSubnet) {
  // Regression: an explicitly authorized address used to bypass the
  // home-subnet membership check entirely, so the HA would install bindings
  // for addresses it cannot proxy (Config: "Home addresses must fall inside
  // this subnet to be served").
  tb_->home_agent->AuthorizeMobileHost(Ipv4Address(99, 1, 2, 3));
  SendRequest(MakeRequest(Ipv4Address(99, 1, 2, 3), Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_.has_value());
  EXPECT_EQ(last_reply_->code, MipReplyCode::kDeniedUnknownHomeAddress);
  EXPECT_EQ(tb_->home_agent->binding_count(), 0u);
}

TEST_F(HomeAgentFixture, DeniesRegistrationWithEmptyCareOf) {
  // Regression: a nonzero-lifetime request with care-of 0.0.0.0 used to be
  // accepted, installing a binding that tunneled the MH's traffic to the
  // unspecified address (a black hole).
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address::Any(), 300, 1));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_.has_value());
  EXPECT_EQ(last_reply_->code, MipReplyCode::kDeniedMalformed);
  EXPECT_EQ(tb_->home_agent->binding_count(), 0u);
  EXPECT_FALSE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
}

TEST_F(HomeAgentFixture, DeniesWrongHomeAgentAddress) {
  auto req = MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 1);
  req.home_agent = Ipv4Address(1, 2, 3, 4);
  SendRequest(req);
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_.has_value());
  EXPECT_EQ(last_reply_->code, MipReplyCode::kDeniedMalformed);
}

TEST_F(HomeAgentFixture, RejectsReplayedIdentification) {
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 10));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_->accepted());

  // Same (or older) identification must be rejected.
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 66), 300, 10));
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(last_reply_->code, MipReplyCode::kDeniedIdentificationMismatch);
  // The binding still points at the first care-of address.
  EXPECT_EQ(tb_->home_agent->GetBinding(Testbed::HomeAddress())->care_of,
            Ipv4Address(36, 8, 0, 50));

  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 66), 300, 9));
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(last_reply_->code, MipReplyCode::kDeniedIdentificationMismatch);
}

TEST_F(HomeAgentFixture, SimultaneousBindingFlagDowngraded) {
  auto req = MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 1);
  req.flags |= kMipFlagSimultaneous;
  SendRequest(req);
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_.has_value());
  EXPECT_EQ(last_reply_->code, MipReplyCode::kAcceptedNoSimultaneous);
  EXPECT_TRUE(last_reply_->accepted());
  EXPECT_EQ(tb_->home_agent->binding_count(), 1u);
}

TEST_F(HomeAgentFixture, ReRegistrationUpdatesCareOf) {
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 134, 0, 60), 300, 2));
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(tb_->home_agent->GetBinding(Testbed::HomeAddress())->care_of,
            Ipv4Address(36, 134, 0, 60));
  EXPECT_EQ(tb_->home_agent->binding_count(), 1u);
}

TEST_F(HomeAgentFixture, DeregistrationRemovesBindingAndProxy) {
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  ASSERT_EQ(tb_->home_agent->binding_count(), 1u);

  SendRequest(MakeRequest(Testbed::HomeAddress(), Testbed::HomeAddress(), 0, 2));
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(tb_->home_agent->binding_count(), 0u);
  EXPECT_EQ(tb_->home_agent->counters().deregistrations, 1u);
  EXPECT_FALSE(tb_->router->stack().arp().IsProxying(tb_->router->FindDevice("eth135"),
                                                     Testbed::HomeAddress()));
}

TEST_F(HomeAgentFixture, BindingExpiresAfterLifetime) {
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 5, 1));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
  tb_->RunFor(Seconds(6));
  EXPECT_FALSE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
  EXPECT_EQ(tb_->home_agent->counters().bindings_expired, 1u);
}

TEST_F(HomeAgentFixture, RefreshPostponesExpiry) {
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 5, 1));
  tb_->RunFor(Seconds(3));
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 5, 2));
  tb_->RunFor(Seconds(3));
  // The original expiry time has passed but the refresh keeps it alive.
  EXPECT_TRUE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
  tb_->RunFor(Seconds(4));
  EXPECT_FALSE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
}

TEST_F(HomeAgentFixture, AuthorizationListRestrictsService) {
  tb_->home_agent->AuthorizeMobileHost(Ipv4Address(36, 135, 0, 99));
  // HomeAddress() (36.135.0.10) is in the home subnet but not authorized.
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(last_reply_->code, MipReplyCode::kDeniedUnknownHomeAddress);

  SendRequest(MakeRequest(Ipv4Address(36, 135, 0, 99), Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  EXPECT_TRUE(last_reply_->accepted());
}

TEST_F(HomeAgentFixture, BindingObserverSeesTransitions) {
  std::vector<std::pair<Ipv4Address, Ipv4Address>> transitions;  // (old, new)
  tb_->home_agent->SetBindingObserver(
      [&](Ipv4Address home, Ipv4Address old_careof, Ipv4Address new_careof) {
        EXPECT_EQ(home, Testbed::HomeAddress());
        transitions.emplace_back(old_careof, new_careof);
      });
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 134, 0, 60), 300, 2));
  tb_->RunFor(Seconds(1));
  SendRequest(MakeRequest(Testbed::HomeAddress(), Testbed::HomeAddress(), 0, 3));
  tb_->RunFor(Seconds(1));

  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].first, Ipv4Address::Any());
  EXPECT_EQ(transitions[0].second, Ipv4Address(36, 8, 0, 50));
  EXPECT_EQ(transitions[1].first, Ipv4Address(36, 8, 0, 50));
  EXPECT_EQ(transitions[1].second, Ipv4Address(36, 134, 0, 60));
  EXPECT_EQ(transitions[2].second, Ipv4Address::Any());
}

TEST_F(HomeAgentFixture, MalformedDatagramCountedNotAnswered) {
  socket_->SendTo(tb_->home_agent_address(), kMipRegistrationPort, {1, 2, 3});
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(replies_, 0);
  EXPECT_EQ(tb_->home_agent->counters().requests_received, 1u);
  EXPECT_EQ(tb_->home_agent->counters().registrations_denied, 1u);
}

// --- Expiry heap -------------------------------------------------------------------

BindingMutation InstallMutation(Ipv4Address home, uint16_t lifetime_sec) {
  BindingMutation m;
  m.kind = BindingMutation::Kind::kInstall;
  m.home_address = home;
  m.care_of = Ipv4Address(36, 8, 0, 50);
  m.lifetime_sec = lifetime_sec;
  m.identification = 1;
  return m;
}

TEST_F(HomeAgentFixture, ShorterLifetimeAfterLongerExpiresFirst) {
  std::vector<std::pair<Ipv4Address, Time>> removals;
  tb_->home_agent->SetBindingObserver(
      [&](Ipv4Address home, Ipv4Address, Ipv4Address new_care_of) {
        if (new_care_of.IsAny()) {
          removals.emplace_back(home, tb_->sim.Now());
        }
      });
  const Ipv4Address long_home = Testbed::HomeAddress();
  const Ipv4Address short_home(36, 135, 0, 11);
  SendRequest(MakeRequest(long_home, Ipv4Address(36, 8, 0, 50), 300, 1));
  tb_->RunFor(Seconds(1));
  SendRequest(MakeRequest(short_home, Ipv4Address(36, 8, 0, 51), 5, 1));
  tb_->RunFor(Seconds(1));
  const Time long_expires = tb_->home_agent->GetBinding(long_home)->expires;
  const Time short_expires = tb_->home_agent->GetBinding(short_home)->expires;
  ASSERT_LT(short_expires, long_expires);

  // The later, shorter binding re-arms the one expiry timer earlier.
  tb_->RunFor(Seconds(6));
  ASSERT_EQ(removals.size(), 1u);
  EXPECT_EQ(removals[0], std::make_pair(short_home, short_expires));
  EXPECT_TRUE(tb_->home_agent->HasBinding(long_home));
  EXPECT_EQ(tb_->home_agent->counters().bindings_expired, 1u);

  tb_->RunFor(Seconds(300));
  ASSERT_EQ(removals.size(), 2u);
  EXPECT_EQ(removals[1], std::make_pair(long_home, long_expires));
  EXPECT_EQ(tb_->home_agent->counters().bindings_expired, 2u);
}

TEST_F(HomeAgentFixture, RemoveAndReinstallAtSameInstantExpiresOnce) {
  HomeAgent& ha = *tb_->home_agent;
  std::vector<Time> removed_at;
  ha.SetBindingObserver([&](Ipv4Address, Ipv4Address, Ipv4Address new_care_of) {
    if (new_care_of.IsAny()) {
      removed_at.push_back(tb_->sim.Now());
    }
  });
  const Time t0 = tb_->sim.Now();
  ha.ApplyMutation(InstallMutation(Testbed::HomeAddress(), 5));
  BindingMutation remove;
  remove.kind = BindingMutation::Kind::kRemove;
  remove.home_address = Testbed::HomeAddress();
  remove.identification = 1;
  ha.ApplyMutation(remove);
  ha.ApplyMutation(InstallMutation(Testbed::HomeAddress(), 5));

  // Two checks are queued for t0 + 5 s; the first expires the reinstalled
  // binding, the second finds it gone.
  tb_->RunFor(Seconds(10));
  EXPECT_EQ(removed_at, (std::vector<Time>{t0, t0 + Seconds(5)}));
  EXPECT_FALSE(ha.HasBinding(Testbed::HomeAddress()));
  EXPECT_EQ(ha.counters().bindings_expired, 1u);
}

TEST_F(HomeAgentFixture, MirroredAndAdoptedBindingsExpire) {
  HomeAgent& ha = *tb_->home_agent;
  std::vector<std::pair<Ipv4Address, Time>> removals;
  ha.SetBindingObserver([&](Ipv4Address home, Ipv4Address, Ipv4Address new_care_of) {
    if (new_care_of.IsAny()) {
      removals.emplace_back(home, tb_->sim.Now());
    }
  });
  const Time t0 = tb_->sim.Now();
  const Ipv4Address adopted_short(36, 135, 0, 21);
  const Ipv4Address adopted_long(36, 135, 0, 22);
  const Ipv4Address mirrored(36, 135, 0, 23);
  HaBindingState state;
  for (const auto& [home, lifetime] : {std::pair{adopted_short, 3}, std::pair{adopted_long, 8}}) {
    HaBindingState::Entry entry;
    entry.home_address = home;
    entry.care_of = Ipv4Address(36, 8, 0, 60);
    entry.lifetime_sec = static_cast<uint16_t>(lifetime);
    entry.identification = 4;
    state.bindings.push_back(entry);
  }
  ha.AdoptState(state);
  ha.ApplyMutation(InstallMutation(mirrored, 5));
  ASSERT_EQ(ha.binding_count(), 3u);

  tb_->RunFor(Seconds(10));
  EXPECT_EQ(removals, (std::vector<std::pair<Ipv4Address, Time>>{
                          {adopted_short, t0 + Seconds(3)},
                          {mirrored, t0 + Seconds(5)},
                          {adopted_long, t0 + Seconds(8)}}));
  EXPECT_EQ(ha.binding_count(), 0u);
  EXPECT_EQ(ha.counters().bindings_expired, 3u);
}

// A standby agent on a bare node: no ARP side effects and no other traffic,
// so every pending event in the simulator belongs to the agent.
struct StandaloneAgent {
  StandaloneAgent() : node(sim, "ha") {
    HomeAgent::Config config;
    config.address = Ipv4Address(36, 135, 0, 1);
    config.home_subnet = Subnet::MustParse("36.0.0.0/8");
    config.initial_role = HaRole::kStandby;
    config.num_shards = 16;
    ha = std::make_unique<HomeAgent>(node, config);
  }

  Simulator sim{7};
  Node node;
  std::unique_ptr<HomeAgent> ha;
};

TEST(HomeAgentExpiryTest, HundredThousandBindingsKeepOneExpiryEvent) {
  StandaloneAgent agent;
  const size_t idle = agent.sim.pending_events();
  constexpr uint32_t kBindings = 100000;
  const uint32_t first = Ipv4Address(36, 100, 0, 0).value();
  // Lifetimes run 66, 65, ..., 60 s and repeat: each of the first seven
  // installs lands ahead of the heap's top and re-arms the timer earlier;
  // the rest queue behind it.
  for (uint32_t i = 0; i < kBindings; ++i) {
    agent.ha->ApplyMutation(
        InstallMutation(Ipv4Address(first + i), static_cast<uint16_t>(66 - i % 7)));
  }
  ASSERT_EQ(agent.ha->binding_count(), kBindings);
  EXPECT_TRUE(agent.sim.HasPendingEvents());
  EXPECT_EQ(agent.sim.pending_events(), idle + 1);

  Time last;
  uint32_t removed = 0;
  agent.ha->SetBindingObserver([&](Ipv4Address, Ipv4Address, Ipv4Address new_care_of) {
    if (new_care_of.IsAny()) {
      EXPECT_GE(agent.sim.Now(), last);
      last = agent.sim.Now();
      ++removed;
    }
  });
  agent.sim.RunFor(Seconds(61));
  EXPECT_EQ(agent.sim.pending_events(), idle + 1);
  agent.sim.RunFor(Seconds(10));
  EXPECT_EQ(removed, kBindings);
  EXPECT_EQ(agent.ha->binding_count(), 0u);
  EXPECT_EQ(agent.ha->counters().bindings_expired, kBindings);
  EXPECT_EQ(agent.sim.pending_events(), idle);
  EXPECT_FALSE(agent.sim.HasPendingEvents());
}

// Destroying the agent mid-run cancels its expiry timer: nothing left in the
// queue points at the dead agent, and the simulation carries on.
TEST(HomeAgentExpiryTest, DestroyedAgentCancelsPendingExpiry) {
  StandaloneAgent agent;
  const size_t idle = agent.sim.pending_events();
  for (uint32_t i = 0; i < 3; ++i) {
    agent.ha->ApplyMutation(InstallMutation(Ipv4Address(36, 100, 0, 1 + i), 5));
  }
  ASSERT_EQ(agent.sim.pending_events(), idle + 1);
  bool later_fired = false;
  agent.sim.Schedule(Seconds(2), [&] { agent.ha.reset(); });
  agent.sim.Schedule(Seconds(8), [&] { later_fired = true; });
  agent.sim.Run();
  EXPECT_EQ(agent.ha, nullptr);
  EXPECT_TRUE(later_fired);
  EXPECT_FALSE(agent.sim.HasPendingEvents());
}

// Two checks due at the same instant fire in install order, both ahead of an
// event scheduled after the second install for that instant: each check sits
// where its own ScheduleAt would have put it, not where the timer is re-armed.
TEST_F(HomeAgentFixture, SameTimeExpiryChecksKeepScheduleOrder) {
  HomeAgent& ha = *tb_->home_agent;
  std::vector<std::string> order;
  ha.SetBindingObserver([&](Ipv4Address home, Ipv4Address, Ipv4Address new_care_of) {
    if (new_care_of.IsAny()) {
      order.push_back(home.ToString());
    }
  });
  const Ipv4Address first(36, 135, 0, 31);
  const Ipv4Address second(36, 135, 0, 32);
  ha.ApplyMutation(InstallMutation(first, 5));
  ha.ApplyMutation(InstallMutation(second, 5));
  tb_->sim.Schedule(Seconds(5), [&] { order.push_back("later"); });
  tb_->RunFor(Seconds(6));
  EXPECT_EQ(order, (std::vector<std::string>{first.ToString(), second.ToString(), "later"}));
}

// A registrant fleet on the visited wired net sending to the testbed's HA.
struct Fleet {
  Fleet(Testbed& tb, uint32_t count, Duration interarrival)
      : node(std::make_unique<Node>(tb.sim, "fleet")) {
    EthernetDevice* dev = node->AddEthernet("eth0", tb.net8.get());
    dev->ForceUp();
    node->ConfigureInterface(dev, "36.8.7.250/16");
    node->AddDefaultRoute(Testbed::RouterOn8(), dev);
    RegistrationLoadGenerator::Config lc;
    lc.home_agent = tb.home_agent_address();
    lc.first_home = Ipv4Address(36, 135, 7, 1);
    lc.count = count;
    lc.first_care_of = Ipv4Address(36, 8, 7, 1);
    lc.start_delay = Seconds(1);
    lc.interarrival = interarrival;
    load = std::make_unique<RegistrationLoadGenerator>(*node, lc);
    load->Start();
  }

  std::unique_ptr<Node> node;
  std::unique_ptr<RegistrationLoadGenerator> load;
};

// Arrival 1 is scheduled only when arrival 0 fires, yet still runs ahead of
// an event scheduled after Start for the same instant.
TEST_F(HomeAgentFixture, LoadGeneratorArrivalsKeepScheduleOrder) {
  Fleet fleet(*tb_, 2, Milliseconds(10));
  uint64_t sent_seen = 0;
  tb_->sim.Schedule(Milliseconds(1010), [&] { sent_seen = fleet.load->stats().sent; });
  tb_->RunFor(Seconds(2));
  EXPECT_EQ(sent_seen, 2u);
  EXPECT_EQ(fleet.load->completed(), 2u);
}

// Destroying a load generator mid-run cancels its one pending arrival (and
// any retransmit timers): no further client sends, and the run continues.
TEST_F(HomeAgentFixture, LoadGeneratorDestroyedMidRunCancelsPendingArrival) {
  Fleet fleet(*tb_, 200, Milliseconds(10));
  std::unique_ptr<RegistrationLoadGenerator>& load = fleet.load;

  uint64_t sent_before_teardown = 0;
  tb_->sim.Schedule(Milliseconds(1500), [&] {
    sent_before_teardown = load->stats().sent;
    load.reset();
  });
  tb_->RunFor(Seconds(10));
  EXPECT_EQ(load, nullptr);
  EXPECT_GT(sent_before_teardown, 0u);
  EXPECT_LT(sent_before_teardown, 200u);
  EXPECT_EQ(tb_->home_agent->counters().requests_received, sent_before_teardown);
}

// The fleet benchmark's shape at a fifth of its size: 20k registrants offered
// at 0.75x the knee of a 16-shard, 32-batch HA on a router between the home
// and visited segments. Every install announces a gratuitous ARP repeated
// for 800 ms, and most registrations cancel a retransmit timer, yet the event
// heap must stay the size of the live work: one pending repeat for the whole
// ARP service, and no more cancelled items than live ones. With one event
// per repeat, about rate x 0.8 s of them would be pending at once.
TEST(HomeAgentFleetTest, EventHeapStaysTheSizeOfTheLiveWork) {
  constexpr uint32_t kClients = 20000;
  constexpr uint32_t kShards = 16;
  constexpr uint32_t kBatchMax = 32;
  const Calibration cal = Calibration::Default();
  const double batch_ms =
      cal.ha_batch_fixed.mean.ToMillisF() + cal.ha_batch_item.mean.ToMillisF() * kBatchMax;
  const double rate_per_s = 0.75 * kShards * kBatchMax / batch_ms * 1000.0;

  Simulator sim(1);
  BroadcastMedium net135(sim, "net135", EthernetMediumParams());
  BroadcastMedium net8(sim, "net8", EthernetMediumParams());
  Node router(sim, "router");
  router.stack().set_forwarding_enabled(true);
  EthernetDevice* r135 = router.AddEthernet("eth135", &net135);
  EthernetDevice* r8 = router.AddEthernet("eth8", &net8);
  for (EthernetDevice* dev : {r135, r8}) {
    dev->set_bandwidth_bps(1'000'000'000);
    dev->ForceUp();
  }
  router.ConfigureInterface(r135, "36.135.0.1/16");
  router.ConfigureInterface(r8, "36.8.0.1/16");
  HomeAgent::Config ha_config;
  ha_config.address = Ipv4Address(36, 135, 0, 1);
  ha_config.home_device = r135;
  ha_config.home_subnet = Subnet::MustParse("36.0.0.0/8");
  ha_config.num_shards = kShards;
  ha_config.batch_max = kBatchMax;
  ha_config.admission_queue_limit = 64;
  HomeAgent ha(router, ha_config);

  Node fleet_node(sim, "fleet");
  EthernetDevice* eth = fleet_node.AddEthernet("eth0", &net8);
  eth->set_bandwidth_bps(1'000'000'000);
  eth->ForceUp();
  fleet_node.ConfigureInterface(eth, "36.8.0.2/16");
  fleet_node.AddDefaultRoute(Ipv4Address(36, 8, 0, 1), eth);
  RegistrationLoadGenerator::Config lc;
  lc.home_agent = Ipv4Address(36, 135, 0, 1);
  lc.first_home = Ipv4Address(36, 100, 0, 0);
  lc.count = kClients;
  lc.first_care_of = Ipv4Address(36, 8, 16, 1);
  lc.start_delay = Seconds(1);
  lc.interarrival = Duration::FromNanos(static_cast<int64_t>(1e9 / rate_per_s));
  RegistrationLoadGenerator load(fleet_node, lc);
  load.Start();

  // A tenth of the repeats that one event per repeat would keep pending.
  const size_t bound = static_cast<size_t>(rate_per_s * 0.8 / 10);
  size_t peak = 0;
  const Time horizon = sim.Now() + Seconds(10);
  while (load.completed() < kClients && sim.Now() < horizon) {
    sim.RunFor(Milliseconds(100));
    peak = std::max(peak, sim.pending_events());
    ASSERT_LE(sim.heap_items(), 2 * sim.pending_events() + 1) << "at " << sim.Now().ToString();
  }
  EXPECT_EQ(load.stats().accepted, kClients);
  EXPECT_EQ(ha.binding_count(), kClients);
  EXPECT_LT(peak, bound) << "peak pending events " << peak;
  sim.RunFor(Seconds(1));  // Every series completes.
  EXPECT_EQ(router.stack().arp().counters().gratuitous_sent,
            uint64_t{ArpService::kGratuitousRepeats} * kClients);
}

}  // namespace
}  // namespace msn
