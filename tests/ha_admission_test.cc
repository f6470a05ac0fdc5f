// Admission-control unit tests for the sharded home agent (DESIGN.md §17):
// stateless denial before authentication work, the silent-drop budget,
// retransmit-aware supersede, shard consistency, and the mobile host's
// backoff-and-retry convergence once load clears.
#include <gtest/gtest.h>

#include <vector>

#include "src/mip/home_agent.h"
#include "src/mip/mobile_host.h"
#include "src/node/udp.h"
#include "src/topo/testbed.h"
#include "src/util/assert.h"

namespace msn {
namespace {

// Drives the HA with hand-built registration requests from a host on the
// home subnet, like HomeAgentFixture, but against a testbed whose HA runs
// with a tiny admission window so the shed paths are reachable without
// thousands of clients.
class HaAdmissionFixture : public ::testing::Test {
 protected:
  void Build(uint32_t shards, uint32_t batch_max, uint32_t admission_limit,
             bool require_auth = false) {
    TestbedConfig cfg;
    cfg.seed = 5;
    cfg.realistic_delays = false;  // Exact, fast control-plane behaviour.
    cfg.ha_shards = shards;
    cfg.ha_batch_max = batch_max;
    cfg.ha_admission_limit = admission_limit;
    tb_ = std::make_unique<Testbed>(cfg);
    if (require_auth) {
      HomeAgent::Config hc = tb_->home_agent->config();
      hc.require_authentication = true;
      tb_->home_agent.reset();
      tb_->home_agent = std::make_unique<HomeAgent>(*tb_->router, hc);
    }

    prober_ = std::make_unique<Node>(tb_->sim, "prober");
    dev_ = prober_->AddEthernet("eth0", tb_->net135.get());
    dev_->ForceUp();
    prober_->ConfigureInterface(dev_, "36.135.0.77/16");
    prober_->AddDefaultRoute(Testbed::RouterOn135(), dev_);

    socket_ = std::make_unique<UdpSocket>(prober_->stack());
    MSN_CHECK(socket_->Bind(0)) << "test socket";
    socket_->SetReceiveHandler(
        [this](const std::vector<uint8_t>& data, const UdpSocket::Metadata&) {
          auto reply = RegistrationReply::Parse(data);
          if (reply) {
            replies_.push_back(*reply);
          }
        });
  }

  RegistrationRequest MakeRequest(Ipv4Address home, Ipv4Address careof,
                                  uint64_t id) {
    RegistrationRequest req;
    req.flags = kMipFlagDecapsulateSelf;
    req.lifetime_sec = 300;
    req.home_address = home;
    req.home_agent = tb_->home_agent_address();
    req.care_of_address = careof;
    req.identification = id;
    return req;
  }

  void SendRequest(const RegistrationRequest& req) {
    socket_->SendTo(tb_->home_agent_address(), kMipRegistrationPort,
                    req.Serialize());
  }

  // Distinct home addresses inside the home subnet, clear of the MH's
  // 36.135.0.10 and the router/prober addresses.
  static Ipv4Address Home(uint32_t i) { return Ipv4Address(36, 135, 0, 100 + i); }
  static Ipv4Address CareOf(uint32_t i) { return Ipv4Address(36, 8, 0, 50 + i); }

  const RegistrationReply* ReplyFor(Ipv4Address home, uint64_t id) const {
    for (const auto& reply : replies_) {
      if (reply.home_address == home && reply.identification == id) {
        return &reply;
      }
    }
    return nullptr;
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<Node> prober_;
  EthernetDevice* dev_ = nullptr;
  std::unique_ptr<UdpSocket> socket_;
  std::vector<RegistrationReply> replies_;
};

TEST_F(HaAdmissionFixture, OverloadDeniedStatelesslyBeforeAuthentication) {
  // The HA requires authentication and no prober home has a key, yet the
  // over-limit arrival is shed with kDeniedInsufficientResources — proof the
  // admission check runs before any authentication work (a post-auth denial
  // would be kDeniedFailedAuthentication).
  Build(/*shards=*/1, /*batch_max=*/1, /*admission_limit=*/2, /*require_auth=*/true);

  // Burst of unauthenticated requests from distinct homes. The first is
  // dequeued by the daemon (busy ~1.48 ms), the next two fill the queue to
  // the limit, and later arrivals land in the admission filter.
  for (uint32_t i = 0; i < 5; ++i) {
    SendRequest(MakeRequest(Home(i), CareOf(i), 1));
  }
  tb_->RunFor(Seconds(1));

  const auto counters = tb_->home_agent->counters();
  EXPECT_GE(counters.admission_denied, 1u);
  EXPECT_EQ(counters.registrations_accepted, 0u);  // No key, nobody admitted.
  bool saw_admission_denial = false;
  for (const auto& reply : replies_) {
    if (reply.code == MipReplyCode::kDeniedInsufficientResources) {
      saw_admission_denial = true;
      EXPECT_EQ(reply.lifetime_sec, 0);
      EXPECT_FALSE(reply.authenticator.has_value());  // Stateless, unkeyed.
    }
  }
  EXPECT_TRUE(saw_admission_denial);
}

TEST_F(HaAdmissionFixture, DenialBudgetExhaustionDropsSilently) {
  // queue_limit 1, so drop limit 2: while the daemon chews on the first
  // request, the second fills the queue, the third is denied (pressure
  // depth 1 + denials 0 < 2), and the fourth is dropped without a reply
  // (depth 1 + denials 1 >= 2).
  Build(/*shards=*/1, /*batch_max=*/1, /*admission_limit=*/1);

  for (uint32_t i = 0; i < 4; ++i) {
    SendRequest(MakeRequest(Home(i), CareOf(i), 1));
  }
  tb_->RunFor(Seconds(1));

  const auto counters = tb_->home_agent->counters();
  EXPECT_EQ(counters.admission_denied, 1u);
  EXPECT_EQ(counters.admission_dropped, 1u);
  EXPECT_EQ(counters.registrations_accepted, 2u);
  // The denied home got exactly one reply: the admission denial. The
  // dropped home got nothing at all.
  ASSERT_NE(ReplyFor(Home(2), 1), nullptr);
  EXPECT_EQ(ReplyFor(Home(2), 1)->code,
            MipReplyCode::kDeniedInsufficientResources);
  EXPECT_EQ(ReplyFor(Home(3), 1), nullptr);
}

TEST_F(HaAdmissionFixture, RetransmitSupersedesQueuedCopyInPlace) {
  Build(/*shards=*/1, /*batch_max=*/1, /*admission_limit=*/0);

  // Filler occupies the daemon so Home(1)'s request stays queued long
  // enough for its retransmit to arrive.
  SendRequest(MakeRequest(Home(0), CareOf(0), 1));
  SendRequest(MakeRequest(Home(1), CareOf(1), 1));
  // Retransmit with a newer identification and a newer care-of address: the
  // queued copy is replaced in place, not enqueued twice.
  SendRequest(MakeRequest(Home(1), CareOf(9), 2));
  tb_->RunFor(Seconds(1));

  const auto counters = tb_->home_agent->counters();
  EXPECT_EQ(counters.admission_superseded, 1u);
  EXPECT_EQ(counters.registrations_accepted, 2u);  // Filler + one for Home(1).
  auto binding = tb_->home_agent->GetBinding(Home(1));
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->care_of, CareOf(9));
  EXPECT_EQ(binding->identification, 2u);
  // The superseded copy never got its own reply.
  EXPECT_EQ(ReplyFor(Home(1), 1), nullptr);
  ASSERT_NE(ReplyFor(Home(1), 2), nullptr);
  EXPECT_TRUE(ReplyFor(Home(1), 2)->accepted());
}

TEST_F(HaAdmissionFixture, StaleRetransmitDoesNotRollBackQueuedCopy) {
  Build(/*shards=*/1, /*batch_max=*/1, /*admission_limit=*/0);

  SendRequest(MakeRequest(Home(0), CareOf(0), 1));  // Filler.
  SendRequest(MakeRequest(Home(1), CareOf(5), 7));
  // A reordered older copy must not replace the newer queued one.
  SendRequest(MakeRequest(Home(1), CareOf(1), 6));
  tb_->RunFor(Seconds(1));

  EXPECT_EQ(tb_->home_agent->counters().admission_superseded, 1u);
  auto binding = tb_->home_agent->GetBinding(Home(1));
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->care_of, CareOf(5));
  EXPECT_EQ(binding->identification, 7u);
}

TEST_F(HaAdmissionFixture, ShardedTableStaysConsistent) {
  Build(/*shards=*/4, /*batch_max=*/4, /*admission_limit=*/0);
  ASSERT_EQ(tb_->home_agent->shard_count(), 4u);

  constexpr uint32_t kHomes = 12;
  for (uint32_t i = 0; i < kHomes; ++i) {
    SendRequest(MakeRequest(Home(i), CareOf(i), 1));
  }
  tb_->RunFor(Seconds(2));

  EXPECT_EQ(tb_->home_agent->binding_count(), kHomes);
  EXPECT_EQ(tb_->home_agent->counters().registrations_accepted, kHomes);
  size_t total = 0;
  for (size_t s = 0; s < tb_->home_agent->shard_count(); ++s) {
    total += tb_->home_agent->ShardBindingCount(s);
    EXPECT_EQ(tb_->home_agent->ShardQueueDepth(s), 0u);
  }
  EXPECT_EQ(total, kHomes);
  EXPECT_EQ(tb_->home_agent->ShardConsistencyError(), "");
  // Every binding is retrievable through the sharded lookup path.
  for (uint32_t i = 0; i < kHomes; ++i) {
    EXPECT_TRUE(tb_->home_agent->HasBinding(Home(i)));
  }
}

TEST_F(HaAdmissionFixture, DeniedMobileHostBacksOffAndConverges) {
  // The real MobileHost attaches to a foreign net while a prober flood
  // keeps the HA's queue at the limit. Its registration is admission-denied
  // at least once; after the flood ends, the backoff retry (which does not
  // consume the retransmit budget) lands and the MH converges.
  Build(/*shards=*/1, /*batch_max=*/1, /*admission_limit=*/2);

  // Flood: one request every 400 us for 3 s from rotating homes — arrivals
  // ~3.7x faster than the 1.48 ms/request drain, so the queue stays at the
  // limit for the whole window.
  constexpr int kFlood = 7500;
  for (int i = 0; i < kFlood; ++i) {
    const Duration at = Milliseconds(10) + Microseconds(400) * int64_t{i};
    tb_->sim.Schedule(at, [this, i] {
      SendRequest(MakeRequest(Home(i % 40), CareOf(i % 40), 1000 + i));
    });
  }

  tb_->MoveMhEthernetTo(tb_->net8.get());
  tb_->ForceEthUp();
  bool attach_result = false;
  tb_->sim.Schedule(Milliseconds(500), [&] {
    tb_->mobile->AttachForeign(tb_->WiredAttachment(50),
                               [&](bool ok) { attach_result = ok; });
  });
  tb_->RunFor(Seconds(30));

  EXPECT_TRUE(attach_result);
  EXPECT_EQ(tb_->mobile->state(), MobileHost::State::kRegistered);
  EXPECT_TRUE(tb_->home_agent->HasBinding(Testbed::HomeAddress()));
  EXPECT_GE(tb_->mobile->counters().admission_backoffs, 1u);
  EXPECT_GE(tb_->home_agent->counters().admission_denied, 1u);
  EXPECT_EQ(tb_->home_agent->ShardConsistencyError(), "");
}

}  // namespace
}  // namespace msn
