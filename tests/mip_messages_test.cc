// Unit tests for the mobile-IP registration message formats, the shared
// registration retransmit backoff, and the Mobile Policy Table.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/mip/messages.h"
#include "src/mip/policy_table.h"

namespace msn {
namespace {

// --- Registration messages ---------------------------------------------------------

TEST(RegistrationRequestTest, RoundTrip) {
  RegistrationRequest req;
  req.flags = kMipFlagDecapsulateSelf;
  req.lifetime_sec = 300;
  req.home_address = Ipv4Address(36, 135, 0, 10);
  req.home_agent = Ipv4Address(36, 135, 0, 1);
  req.care_of_address = Ipv4Address(36, 8, 0, 50);
  req.identification = 0x1122334455667788ull;

  auto bytes = req.Serialize();
  ASSERT_EQ(bytes.size(), RegistrationRequest::kSize);

  auto parsed = RegistrationRequest::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flags, kMipFlagDecapsulateSelf);
  EXPECT_EQ(parsed->lifetime_sec, 300);
  EXPECT_EQ(parsed->home_address, req.home_address);
  EXPECT_EQ(parsed->home_agent, req.home_agent);
  EXPECT_EQ(parsed->care_of_address, req.care_of_address);
  EXPECT_EQ(parsed->identification, req.identification);
  EXPECT_FALSE(parsed->IsDeregistration());
}

TEST(RegistrationRequestTest, DeregistrationHasZeroLifetime) {
  RegistrationRequest req;
  req.lifetime_sec = 0;
  EXPECT_TRUE(req.IsDeregistration());
  EXPECT_NE(req.ToString().find("deregister"), std::string::npos);
}

TEST(RegistrationRequestTest, ParseRejectsWrongTypeAndTruncation) {
  RegistrationRequest req;
  auto bytes = req.Serialize();
  bytes[0] = 3;  // Reply type.
  EXPECT_FALSE(RegistrationRequest::Parse(bytes).has_value());
  bytes[0] = 1;
  bytes.resize(10);
  EXPECT_FALSE(RegistrationRequest::Parse(bytes).has_value());
}

TEST(RegistrationReplyTest, RoundTrip) {
  RegistrationReply reply;
  reply.code = MipReplyCode::kAccepted;
  reply.lifetime_sec = 120;
  reply.home_address = Ipv4Address(36, 135, 0, 10);
  reply.home_agent = Ipv4Address(36, 135, 0, 1);
  reply.identification = 42;

  auto bytes = reply.Serialize();
  ASSERT_EQ(bytes.size(), RegistrationReply::kSize);
  auto parsed = RegistrationReply::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->accepted());
  EXPECT_EQ(parsed->lifetime_sec, 120);
  EXPECT_EQ(parsed->identification, 42u);
}

TEST(RegistrationReplyTest, DenialCodes) {
  EXPECT_TRUE(MipReplyCodeAccepted(MipReplyCode::kAccepted));
  EXPECT_TRUE(MipReplyCodeAccepted(MipReplyCode::kAcceptedNoSimultaneous));
  EXPECT_FALSE(MipReplyCodeAccepted(MipReplyCode::kDeniedMalformed));
  EXPECT_FALSE(MipReplyCodeAccepted(MipReplyCode::kDeniedUnknownHomeAddress));
  EXPECT_FALSE(MipReplyCodeAccepted(MipReplyCode::kDeniedIdentificationMismatch));
  EXPECT_NE(std::string(MipReplyCodeName(MipReplyCode::kDeniedLifetimeTooLong)).find("lifetime"),
            std::string::npos);
}

TEST(RegistrationReplyTest, ParseRejectsWrongType) {
  RegistrationReply reply;
  auto bytes = reply.Serialize();
  bytes[0] = 1;
  EXPECT_FALSE(RegistrationReply::Parse(bytes).has_value());
}

// --- Registration retransmit backoff ------------------------------------------------

TEST(RegistrationBackoffTest, JitterStaysInBoundsSaturatesAndReplays) {
  auto schedule = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<int64_t> waits_ns;
    Duration wait;  // Zero: a fresh attempt.
    for (int i = 0; i < 32; ++i) {
      wait = NextRegistrationBackoff(wait, rng);
      waits_ns.push_back(wait.nanos());
    }
    return waits_ns;
  };
  const std::vector<int64_t> waits = schedule(42);
  EXPECT_EQ(waits.front(), Seconds(1).nanos());
  for (size_t i = 1; i < waits.size(); ++i) {
    EXPECT_GE(waits[i], Seconds(1).nanos()) << "wait " << i;
    EXPECT_LE(waits[i], 3 * waits[i - 1]) << "wait " << i;
  }
  EXPECT_EQ(*std::max_element(waits.begin(), waits.end()), Seconds(8).nanos());
  EXPECT_EQ(waits, schedule(42));
}

// --- Mobile Policy Table --------------------------------------------------------------

TEST(PolicyTableTest, DefaultPolicyIsTunnel) {
  MobilePolicyTable table;
  EXPECT_EQ(table.Lookup(Ipv4Address(1, 2, 3, 4)), MobilePolicy::kTunnelHome);
  table.set_default_policy(MobilePolicy::kTriangle);
  EXPECT_EQ(table.Lookup(Ipv4Address(1, 2, 3, 4)), MobilePolicy::kTriangle);
}

TEST(PolicyTableTest, LongestPrefixMatch) {
  MobilePolicyTable table;
  table.Set(Subnet::MustParse("36.0.0.0/8"), MobilePolicy::kTriangle);
  table.Set(Subnet::MustParse("36.8.0.0/16"), MobilePolicy::kDirect);
  table.Set(Subnet::MustParse("36.8.0.20/32"), MobilePolicy::kEncapDirect);

  EXPECT_EQ(table.Lookup(Ipv4Address(36, 135, 0, 1)), MobilePolicy::kTriangle);
  EXPECT_EQ(table.Lookup(Ipv4Address(36, 8, 0, 1)), MobilePolicy::kDirect);
  EXPECT_EQ(table.Lookup(Ipv4Address(36, 8, 0, 20)), MobilePolicy::kEncapDirect);
  EXPECT_EQ(table.Lookup(Ipv4Address(99, 0, 0, 1)), MobilePolicy::kTunnelHome);
}

TEST(PolicyTableTest, SetReplacesExisting) {
  MobilePolicyTable table;
  table.Set(Subnet::MustParse("36.8.0.0/16"), MobilePolicy::kTriangle);
  table.Set(Subnet::MustParse("36.8.0.0/16"), MobilePolicy::kDirect, true);
  EXPECT_EQ(table.entries().size(), 1u);
  EXPECT_EQ(table.Lookup(Ipv4Address(36, 8, 0, 1)), MobilePolicy::kDirect);
  EXPECT_TRUE(table.entries()[0].verified);
}

TEST(PolicyTableTest, HitCounting) {
  MobilePolicyTable table;
  table.Set(Subnet::MustParse("36.8.0.0/16"), MobilePolicy::kTriangle);
  EXPECT_EQ(table.Lookup(Ipv4Address(36, 8, 0, 1)), MobilePolicy::kTriangle);
  EXPECT_EQ(table.Lookup(Ipv4Address(36, 8, 0, 2)), MobilePolicy::kTriangle);
  table.LookupConst(Ipv4Address(36, 8, 0, 3));  // Advisory: no hit.
  EXPECT_EQ(table.entries()[0].hits, 2u);
}

TEST(PolicyTableTest, RecordFallbackCachesTunnelHostRoute) {
  MobilePolicyTable table;
  table.set_default_policy(MobilePolicy::kTriangle);
  table.RecordFallback(Ipv4Address(36, 8, 0, 20));
  EXPECT_EQ(table.Lookup(Ipv4Address(36, 8, 0, 20)), MobilePolicy::kTunnelHome);
  EXPECT_EQ(table.Lookup(Ipv4Address(36, 8, 0, 21)), MobilePolicy::kTriangle);
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_TRUE(table.entries()[0].verified);
}

TEST(PolicyTableTest, RemoveAndClear) {
  MobilePolicyTable table;
  table.Set(Subnet::MustParse("36.8.0.0/16"), MobilePolicy::kDirect);
  EXPECT_TRUE(table.Remove(Subnet::MustParse("36.8.0.0/16")));
  EXPECT_FALSE(table.Remove(Subnet::MustParse("36.8.0.0/16")));
  table.Set(Subnet::MustParse("1.0.0.0/8"), MobilePolicy::kDirect);
  table.Clear();
  EXPECT_TRUE(table.entries().empty());
}

TEST(PolicyTableTest, ToStringMentionsPolicies) {
  MobilePolicyTable table;
  table.Set(Subnet::MustParse("36.8.0.0/16"), MobilePolicy::kEncapDirect);
  const std::string s = table.ToString();
  EXPECT_NE(s.find("tunnel-home"), std::string::npos);   // Default.
  EXPECT_NE(s.find("encap-direct"), std::string::npos);
  EXPECT_NE(s.find("36.8.0.0/16"), std::string::npos);
}

TEST(PolicyTableTest, PolicyNames) {
  EXPECT_STREQ(MobilePolicyName(MobilePolicy::kTunnelHome), "tunnel-home");
  EXPECT_STREQ(MobilePolicyName(MobilePolicy::kTriangle), "triangle");
  EXPECT_STREQ(MobilePolicyName(MobilePolicy::kEncapDirect), "encap-direct");
  EXPECT_STREQ(MobilePolicyName(MobilePolicy::kDirect), "direct");
}

}  // namespace
}  // namespace msn
