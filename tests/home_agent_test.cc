// Unit tests for the home agent: registration validation, binding lifecycle,
// proxy ARP behaviour, lifetime expiry, replay rejection.
#include <gtest/gtest.h>

#include "src/mip/home_agent.h"
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

}  // namespace
}  // namespace msn
