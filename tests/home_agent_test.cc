// Unit tests for the home agent: registration validation, binding lifecycle,
// proxy ARP behaviour, lifetime expiry (and its one-timer expiry heap),
// replay rejection, owner teardown with events still pending, and the event
// heap's size under a registrant fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/mip/home_agent.h"
#include "src/mip/reg_load.h"
#include "src/node/udp.h"
#include "src/topo/testbed.h"
#include "src/util/assert.h"
#include "tests/fleet_bed.h"

namespace msn {
namespace {

// Drives the HA with hand-built registration requests from a host on the
// home subnet (36.135.0.77), mimicking a mobile host without using the
// MobileHost class.
class HomeAgentFixture : public ::testing::Test {
 protected:
  explicit HomeAgentFixture(uint32_t ha_shards = 1) {
    TestbedConfig cfg;
    cfg.seed = 5;
    cfg.realistic_delays = false;  // Exact, fast control-plane behaviour.
    cfg.ha_shards = ha_shards;
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

// Replay history outlives the binding: after a deregistration the home's
// record stays, and a request reusing an old identification is still denied.
TEST_F(HomeAgentFixture, ReplayIsDeniedAfterDeregistration) {
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 10));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_->accepted());
  SendRequest(MakeRequest(Testbed::HomeAddress(), Testbed::HomeAddress(), 0, 11));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_->accepted());
  EXPECT_EQ(tb_->home_agent->binding_count(), 0u);
  EXPECT_EQ(tb_->home_agent->record_count(), 1u);

  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 66), 300, 11));
  tb_->RunFor(Seconds(1));
  EXPECT_EQ(last_reply_->code, MipReplyCode::kDeniedIdentificationMismatch);
  EXPECT_FALSE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));

  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 66), 300, 12));
  tb_->RunFor(Seconds(1));
  EXPECT_TRUE(last_reply_->accepted());
  EXPECT_EQ(tb_->home_agent->ShardConsistencyError(), "");
}

// A denial for a home the agent has never seen leaves no record; a denial
// for a home with replay history keeps its record.
TEST_F(HomeAgentFixture, DenialOfUnseenHomeLeavesNoRecord) {
  auto wrong_agent = MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 1);
  wrong_agent.home_agent = Ipv4Address(1, 2, 3, 4);
  SendRequest(wrong_agent);
  tb_->RunFor(Seconds(1));
  ASSERT_EQ(last_reply_->code, MipReplyCode::kDeniedMalformed);
  EXPECT_EQ(tb_->home_agent->record_count(), 0u);

  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 5));
  tb_->RunFor(Seconds(1));
  ASSERT_TRUE(last_reply_->accepted());
  SendRequest(MakeRequest(Testbed::HomeAddress(), Ipv4Address(36, 8, 0, 50), 300, 5));
  tb_->RunFor(Seconds(1));
  ASSERT_EQ(last_reply_->code, MipReplyCode::kDeniedIdentificationMismatch);
  EXPECT_EQ(tb_->home_agent->record_count(), 1u);
  EXPECT_EQ(tb_->home_agent->ShardConsistencyError(), "");
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
  socket_->SendTo(tb_->home_agent_address(), kMipRegistrationPort, std::vector<uint8_t>{1, 2, 3});
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

// The testbed's agent with its binding table split across eight shards.
class ShardedHomeAgentFixture : public HomeAgentFixture {
 protected:
  ShardedHomeAgentFixture() : HomeAgentFixture(8) {}
};

// The snapshot lists bindings and identifications in ascending address
// order, whatever order the homes registered in and whichever shards hold
// them (a peer may shard differently).
TEST_F(ShardedHomeAgentFixture, SnapshotListsHomesInAddressOrder) {
  constexpr uint32_t kHomes = 16;
  std::vector<Ipv4Address> registered;
  for (uint32_t i = 0; i < kHomes; ++i) {
    const uint32_t host = 1 + (i * 7) % kHomes;  // 1, 8, 15, 6, 13, ...
    const Ipv4Address home(36, 135, 1, static_cast<uint8_t>(host));
    registered.push_back(home);
    SendRequest(MakeRequest(home, Ipv4Address(36, 8, 0, 50), 300, 100 + host));
  }
  tb_->RunFor(Seconds(1));
  // One home goes home again: it keeps its identification but no binding.
  const Ipv4Address returned(36, 135, 1, 5);
  SendRequest(MakeRequest(returned, returned, 0, 500));
  tb_->RunFor(Seconds(1));

  const HomeAgent& ha = *tb_->home_agent;
  size_t used_shards = 0;
  for (size_t s = 0; s < ha.shard_count(); ++s) {
    used_shards += ha.ShardBindingCount(s) > 0 ? 1 : 0;
  }
  EXPECT_GE(used_shards, 4u);
  EXPECT_EQ(ha.ShardConsistencyError(), "");

  const HaBindingState state = ha.SnapshotState();
  std::vector<Ipv4Address> bound;
  for (const auto& entry : state.bindings) {
    bound.push_back(entry.home_address);
  }
  EXPECT_TRUE(std::is_sorted(bound.begin(), bound.end()));
  EXPECT_EQ(std::adjacent_find(bound.begin(), bound.end()), bound.end());
  EXPECT_EQ(bound.size(), ha.binding_count());
  std::vector<Ipv4Address> with_id;
  for (const auto& [home, identification] : state.identifications) {
    with_id.push_back(home);
  }
  EXPECT_TRUE(std::is_sorted(with_id.begin(), with_id.end()));
  EXPECT_EQ(std::adjacent_find(with_id.begin(), with_id.end()), with_id.end());
  for (Ipv4Address home : registered) {
    EXPECT_EQ(std::count(bound.begin(), bound.end(), home), home == returned ? 0 : 1)
        << home.ToString();
    const auto it = std::find_if(state.identifications.begin(), state.identifications.end(),
                                 [&](const auto& id) { return id.first == home; });
    ASSERT_NE(it, state.identifications.end()) << home.ToString();
    EXPECT_EQ(it->second, home == returned ? 500u : 100u + (home.value() & 0xff));
  }
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
  FleetBed bed(kClients);
  bed.load.Start();

  // A tenth of the repeats that one event per repeat would keep pending.
  const size_t bound = static_cast<size_t>(FleetBed::RatePerSec() * 0.8 / 10);
  size_t peak = 0;
  const Time horizon = bed.sim.Now() + Seconds(10);
  while (bed.load.completed() < kClients && bed.sim.Now() < horizon) {
    bed.sim.RunFor(Milliseconds(100));
    peak = std::max(peak, bed.sim.pending_events());
    ASSERT_LE(bed.sim.heap_items(), 2 * bed.sim.pending_events() + 1)
        << "at " << bed.sim.Now().ToString();
  }
  EXPECT_EQ(bed.load.stats().accepted, kClients);
  EXPECT_EQ(bed.ha.binding_count(), kClients);
  EXPECT_LT(peak, bound) << "peak pending events " << peak;
  bed.sim.RunFor(Seconds(1));  // Every series completes.
  EXPECT_EQ(bed.router.stack().arp().counters().gratuitous_sent,
            uint64_t{ArpService::kGratuitousRepeats} * kClients);
}

}  // namespace
}  // namespace msn
