// Property-style and parameterized tests: invariants checked over random
// inputs and parameter sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/mip/ipip.h"
#include "src/mip/messages.h"
#include "src/mip/policy_table.h"
#include "src/net/checksum.h"
#include "src/net/headers.h"
#include "src/node/routing_table.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"
#include "src/util/rng.h"

namespace msn {
namespace {

// --- Checksum properties ------------------------------------------------------------

class ChecksumProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChecksumProperty, AppendedChecksumVerifies) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(uint64_t{1}, uint64_t{300}));
    std::vector<uint8_t> data(len);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const uint16_t sum = ComputeInternetChecksum(data);
    std::vector<uint8_t> with_sum = data;
    // Checksums are computed over even alignment in practice; pad odd buffers.
    if (with_sum.size() % 2 != 0) {
      with_sum.push_back(0);
    }
    const uint16_t padded_sum =
        with_sum.size() == data.size() ? sum : ComputeInternetChecksum(with_sum);
    with_sum.push_back(static_cast<uint8_t>(padded_sum >> 8));
    with_sum.push_back(static_cast<uint8_t>(padded_sum & 0xff));
    EXPECT_TRUE(VerifyInternetChecksum(with_sum.data(), with_sum.size()));
  }
}

TEST_P(ChecksumProperty, SingleWordCorruptionAlwaysDetected) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> data(64);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const uint16_t sum = ComputeInternetChecksum(data);
    data.push_back(static_cast<uint8_t>(sum >> 8));
    data.push_back(static_cast<uint8_t>(sum & 0xff));
    ASSERT_TRUE(VerifyInternetChecksum(data.data(), data.size()));

    // Any change to one 16-bit word that alters its value is detected.
    const size_t word = static_cast<size_t>(rng.UniformInt(uint64_t{0}, uint64_t{31}));
    const uint8_t flip = static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{255}));
    std::vector<uint8_t> corrupted = data;
    corrupted[word * 2] ^= flip;
    EXPECT_FALSE(VerifyInternetChecksum(corrupted.data(), corrupted.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumProperty, ::testing::Values(1, 2, 3, 4, 5));

// --- Header round-trip properties ------------------------------------------------------

class HeaderProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeaderProperty, Ipv4DatagramRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    Ipv4Datagram dg;
    dg.header.tos = static_cast<uint8_t>(rng.NextU64());
    dg.header.identification = static_cast<uint16_t>(rng.NextU64());
    dg.header.ttl = static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, uint64_t{255}));
    dg.header.protocol = static_cast<IpProto>(rng.UniformInt(uint64_t{1}, uint64_t{150}));
    dg.header.src = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    dg.header.dst = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    dg.payload.resize(static_cast<size_t>(rng.UniformInt(uint64_t{0}, uint64_t{512})));
    for (auto& b : dg.payload) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    auto parsed = Ipv4Datagram::Parse(dg.Serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->header.tos, dg.header.tos);
    EXPECT_EQ(parsed->header.identification, dg.header.identification);
    EXPECT_EQ(parsed->header.ttl, dg.header.ttl);
    EXPECT_EQ(parsed->header.protocol, dg.header.protocol);
    EXPECT_EQ(parsed->header.src, dg.header.src);
    EXPECT_EQ(parsed->header.dst, dg.header.dst);
    EXPECT_EQ(parsed->payload, dg.payload);
  }
}

TEST_P(HeaderProperty, EncapsulationIsLossless) {
  Rng rng(GetParam() + 7);
  for (int trial = 0; trial < 100; ++trial) {
    Ipv4Datagram inner;
    inner.header.protocol = IpProto::kUdp;
    inner.header.src = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    inner.header.dst = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    inner.payload.resize(static_cast<size_t>(rng.UniformInt(uint64_t{0}, uint64_t{256})));
    for (auto& b : inner.payload) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const Ipv4Address outer_src(static_cast<uint32_t>(rng.NextU64()));
    const Ipv4Address outer_dst(static_cast<uint32_t>(rng.NextU64()));
    Ipv4Header outer;
    const Packet wire = EncapsulateIpIpPacket(
        outer, BuildIpv4Packet(inner.header, inner.payload), outer_src, outer_dst);
    // Exactly one header of overhead.
    EXPECT_EQ(wire.size(), inner.Serialize().size() + Ipv4Header::kSize);
    EXPECT_EQ(outer.total_length, wire.size());
    auto recovered = DecapsulateIpIp(wire.span().subspan(Ipv4Header::kSize));
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->Serialize(), inner.Serialize());
  }
}

TEST_P(HeaderProperty, RegistrationMessagesRoundTrip) {
  Rng rng(GetParam() + 13);
  for (int trial = 0; trial < 100; ++trial) {
    RegistrationRequest req;
    req.flags = static_cast<uint8_t>(rng.NextU64());
    req.lifetime_sec = static_cast<uint16_t>(rng.NextU64());
    req.home_address = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    req.home_agent = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    req.care_of_address = Ipv4Address(static_cast<uint32_t>(rng.NextU64()));
    req.identification = rng.NextU64();
    auto parsed = RegistrationRequest::Parse(req.Serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->flags, req.flags);
    EXPECT_EQ(parsed->lifetime_sec, req.lifetime_sec);
    EXPECT_EQ(parsed->home_address, req.home_address);
    EXPECT_EQ(parsed->care_of_address, req.care_of_address);
    EXPECT_EQ(parsed->identification, req.identification);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeaderProperty, ::testing::Values(11, 22, 33));

// --- Longest-prefix-match reference model ------------------------------------------------

class LpmProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LpmProperty, MatchesBruteForceReference) {
  Rng rng(GetParam());
  RoutingTable table;
  struct Ref {
    Subnet subnet;
    int metric;
    size_t order;
  };
  std::vector<Ref> refs;
  for (size_t i = 0; i < 40; ++i) {
    const int prefix = static_cast<int>(rng.UniformInt(uint64_t{0}, uint64_t{32}));
    const Subnet subnet(Ipv4Address(static_cast<uint32_t>(rng.NextU64())),
                        SubnetMask(prefix));
    const int metric = static_cast<int>(rng.UniformInt(uint64_t{0}, uint64_t{3}));
    table.Add(RouteEntry{subnet, Ipv4Address::Any(), nullptr, Ipv4Address::Any(), metric});
    refs.push_back(Ref{subnet, metric, i});
  }

  for (int probe = 0; probe < 500; ++probe) {
    const Ipv4Address dst(static_cast<uint32_t>(rng.NextU64()));
    // Brute-force reference: longest prefix, then lowest metric, then first
    // inserted.
    const Ref* best = nullptr;
    for (const Ref& ref : refs) {
      if (!ref.subnet.Contains(dst)) {
        continue;
      }
      if (best == nullptr || ref.subnet.prefix_len() > best->subnet.prefix_len() ||
          (ref.subnet.prefix_len() == best->subnet.prefix_len() && ref.metric < best->metric)) {
        best = &ref;
      }
    }
    auto got = table.Lookup(dst);
    if (best == nullptr) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->dest, best->subnet);
      EXPECT_EQ(got->metric, best->metric);
    }
  }
}

TEST_P(LpmProperty, PolicyTableMatchesRoutingTableSemantics) {
  Rng rng(GetParam() + 99);
  MobilePolicyTable policy;
  RoutingTable reference;
  const MobilePolicy policies[] = {MobilePolicy::kTunnelHome, MobilePolicy::kTriangle,
                                   MobilePolicy::kEncapDirect, MobilePolicy::kDirect};
  for (int i = 0; i < 30; ++i) {
    const int prefix = static_cast<int>(rng.UniformInt(uint64_t{1}, uint64_t{32}));
    const Subnet subnet(Ipv4Address(static_cast<uint32_t>(rng.NextU64())),
                        SubnetMask(prefix));
    const MobilePolicy p = policies[rng.UniformInt(uint64_t{0}, uint64_t{3})];
    policy.Set(subnet, p);
    // Mirror into a routing table using the metric to encode the policy.
    reference.RemoveWhere([&](const RouteEntry& e) { return e.dest == subnet; });
    reference.Add(
        RouteEntry{subnet, Ipv4Address::Any(), nullptr, Ipv4Address::Any(), static_cast<int>(p)});
  }
  for (int probe = 0; probe < 500; ++probe) {
    const Ipv4Address dst(static_cast<uint32_t>(rng.NextU64()));
    auto route = reference.Lookup(dst);
    const MobilePolicy got = policy.LookupConst(dst);
    if (route.has_value()) {
      EXPECT_EQ(static_cast<int>(got), route->metric);
    } else {
      EXPECT_EQ(got, MobilePolicy::kTunnelHome);
    }
  }
}

TEST_P(LpmProperty, InsertRemoveChurnMatchesReference) {
  Rng rng(GetParam() + 7);
  MobilePolicyTable policy;
  RoutingTable reference;
  const MobilePolicy policies[] = {MobilePolicy::kTunnelHome, MobilePolicy::kTriangle,
                                   MobilePolicy::kEncapDirect, MobilePolicy::kDirect};
  std::vector<Subnet> live;
  for (int op = 0; op < 200; ++op) {
    if (!live.empty() && rng.Bernoulli(0.35)) {
      const size_t victim = rng.UniformInt(uint64_t{0}, uint64_t{live.size() - 1});
      const Subnet subnet = live[victim];
      live.erase(live.begin() + static_cast<long>(victim));
      EXPECT_TRUE(policy.Remove(subnet));
      reference.RemoveWhere([&](const RouteEntry& e) { return e.dest == subnet; });
    } else {
      const int prefix = static_cast<int>(rng.UniformInt(uint64_t{1}, uint64_t{32}));
      const Subnet subnet(Ipv4Address(static_cast<uint32_t>(rng.NextU64())),
                          SubnetMask(prefix));
      const MobilePolicy p = policies[rng.UniformInt(uint64_t{0}, uint64_t{3})];
      if (std::find(live.begin(), live.end(), subnet) == live.end()) {
        live.push_back(subnet);
      }
      policy.Set(subnet, p);
      reference.RemoveWhere([&](const RouteEntry& e) { return e.dest == subnet; });
      reference.Add(RouteEntry{subnet, Ipv4Address::Any(), nullptr, Ipv4Address::Any(),
                               static_cast<int>(p)});
    }
    // Spot-check LPM agreement after every mutation.
    for (int probe = 0; probe < 20; ++probe) {
      const Ipv4Address dst(static_cast<uint32_t>(rng.NextU64()));
      auto route = reference.Lookup(dst);
      const MobilePolicy got = policy.LookupConst(dst);
      if (route.has_value()) {
        EXPECT_EQ(static_cast<int>(got), route->metric);
      } else {
        EXPECT_EQ(got, MobilePolicy::kTunnelHome);
      }
    }
  }
}

TEST_P(LpmProperty, FallbackAlwaysTerminatesAtTunnelHome) {
  // Paper §3.3: when an optimized route (triangle or direct encapsulation)
  // fails its reachability probe, the policy fallback must land the
  // destination on kTunnelHome — from any table state, in one step, and
  // stay there (idempotent), without disturbing unrelated destinations.
  Rng rng(GetParam() + 13);
  MobilePolicyTable policy;
  const MobilePolicy policies[] = {MobilePolicy::kTunnelHome, MobilePolicy::kTriangle,
                                   MobilePolicy::kEncapDirect, MobilePolicy::kDirect};
  for (int i = 0; i < 30; ++i) {
    const int prefix = static_cast<int>(rng.UniformInt(uint64_t{1}, uint64_t{28}));
    const Subnet subnet(Ipv4Address(static_cast<uint32_t>(rng.NextU64())),
                        SubnetMask(prefix));
    policy.Set(subnet, policies[rng.UniformInt(uint64_t{0}, uint64_t{3})]);
  }
  for (int trial = 0; trial < 200; ++trial) {
    const Ipv4Address dst(static_cast<uint32_t>(rng.NextU64()));
    const Ipv4Address witness(static_cast<uint32_t>(rng.NextU64()));
    const MobilePolicy witness_before = policy.LookupConst(witness);

    policy.RecordFallback(dst);
    EXPECT_EQ(policy.LookupConst(dst), MobilePolicy::kTunnelHome);
    policy.RecordFallback(dst);
    EXPECT_EQ(policy.LookupConst(dst), MobilePolicy::kTunnelHome);

    if (witness != dst) {
      EXPECT_EQ(policy.LookupConst(witness), witness_before)
          << "fallback for " << dst.ToString() << " disturbed "
          << witness.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmProperty, ::testing::Values(101, 202, 303, 404));

// --- Same-subnet switch loss sweep (paper §4 experiment 1, 20 iterations) ------------------

class AddressSwitchSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AddressSwitchSweep, LosesAtMostOneProbeAt10ms) {
  TestbedConfig cfg;
  cfg.seed = GetParam();
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);

  ProbeEchoServer echo(*tb.mh, 7);
  ProbeSender sender(*tb.ch, ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(10)});
  sender.Start();
  // Random phase between the probe stream and the switch.
  tb.RunFor(Milliseconds(500) + Microseconds(static_cast<int64_t>(
                                    tb.sim.rng().UniformInt(uint64_t{0}, uint64_t{9999}))));
  bool ok = false;
  tb.mobile->SwitchCareOfAddress(Ipv4Address(36, 8, 0, 51), [&](bool r) { ok = r; });
  tb.RunFor(Milliseconds(500));
  sender.Stop();
  tb.RunFor(Seconds(1));
  ASSERT_TRUE(ok);
  // Paper: the vulnerable interval is under 10 ms, so at most one probe dies.
  EXPECT_LE(sender.TotalLost(), 1u);
}

INSTANTIATE_TEST_SUITE_P(TwentyIterations, AddressSwitchSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// --- Hot switch never loses (sweep over seeds) ------------------------------------------------

class HotSwitchSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HotSwitchSweep, NoLossAcrossSeeds) {
  TestbedConfig cfg;
  cfg.seed = GetParam() * 7919;
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);
  tb.ForceRadioUp();
  tb.mh->stack().ConfigureAddress(tb.mh_radio, Ipv4Address(36, 134, 0, 70), SubnetMask(16));

  ProbeEchoServer echo(*tb.mh, 7);
  ProbeSender sender(*tb.ch, ProbeSender::Config{Testbed::HomeAddress(), 7, Milliseconds(250)});
  sender.Start();
  tb.RunFor(Seconds(1));
  tb.mobile->HotSwitchTo(tb.WirelessAttachment(70), nullptr);
  tb.RunFor(Seconds(3));
  sender.Stop();
  tb.RunFor(Seconds(2));
  EXPECT_LE(sender.TotalLost(), 1u);  // Radio random drop tolerance.
}

INSTANTIATE_TEST_SUITE_P(TenIterations, HotSwitchSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

// --- Registration timeline statistics over repeated switches ---------------------------------

TEST(TimelineStatistics, TenSwitchesAverageNearPaperNumbers) {
  TestbedConfig cfg;
  cfg.seed = 555;
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);

  double total_sum = 0, reqrep_sum = 0;
  const int kRuns = 10;
  for (int i = 0; i < kRuns; ++i) {
    bool ok = false;
    tb.mobile->SwitchCareOfAddress(Ipv4Address(36, 8, 0, static_cast<uint8_t>(60 + (i % 2))),
                                   [&](bool r) { ok = r; });
    tb.RunFor(Seconds(2));
    ASSERT_TRUE(ok);
    total_sum += tb.mobile->last_timeline().Total().ToMillisF();
    reqrep_sum += tb.mobile->last_timeline().RequestReply().ToMillisF();
  }
  const double total_mean = total_sum / kRuns;
  const double reqrep_mean = reqrep_sum / kRuns;
  // Paper Figure 7: total 7.39 ms, request->reply 4.79 ms. Accept +-25%.
  EXPECT_GT(total_mean, 7.39 * 0.75);
  EXPECT_LT(total_mean, 7.39 * 1.25);
  EXPECT_GT(reqrep_mean, 4.79 * 0.75);
  EXPECT_LT(reqrep_mean, 4.79 * 1.25);
}

// --- FIFO property ---------------------------------------------------------------

// Same-priority frames leave a zero-serialization device in exactly the order
// they were queued, even when whole clumps share one completion instant. Each
// seed draws its own clump schedule.
class ZeroSerializationFifoProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZeroSerializationFifoProperty, TransmitOrderMatchesSendOrder) {
  Rng rng(GetParam());
  Simulator sim(GetParam());
  BroadcastMedium seg(sim, "seg", EthernetMediumParams());
  Node a(sim, "a");
  Node b(sim, "b");
  EthernetDevice* a_dev = a.AddEthernet("eth0", &seg);
  EthernetDevice* b_dev = b.AddEthernet("eth0", &seg);
  a_dev->ForceUp();
  b_dev->ForceUp();
  // Zero serialization delay: every queued frame's completion time coincides.
  a_dev->set_bandwidth_bps(0);
  a.ConfigureInterface(a_dev, "10.0.0.1/24");
  b.ConfigureInterface(b_dev, "10.0.0.2/24");

  // FIFO is asserted at the transmit tap. (The far-end receive order is not
  // FIFO: the broadcast medium draws independent per-frame propagation
  // jitter.)
  std::vector<uint16_t> transmitted;
  a_dev->SetTap([&](const EthernetFrame& frame, NetDevice::TapDirection dir) {
    if (dir != NetDevice::TapDirection::kTransmit ||
        frame.ethertype != EtherType::kIpv4) {
      return;
    }
    const auto bytes = frame.payload.ToVector();
    ASSERT_EQ(bytes.size(), Ipv4Header::kSize + 2);
    transmitted.push_back(static_cast<uint16_t>(
        (bytes[Ipv4Header::kSize] << 8) |
        bytes[Ipv4Header::kSize + 1]));
  });
  std::vector<uint16_t> received;
  b.stack().RegisterProtocolHandler(
      IpProto::kTcp, [&](const Ipv4Header&, const Packet& payload, NetDevice*) {
        const auto bytes = payload.ToVector();
        ASSERT_EQ(bytes.size(), 2u);
        received.push_back(static_cast<uint16_t>((bytes[0] << 8) | bytes[1]));
      });

  // Clumps of sends at randomized instants: several frames hit the queue in
  // one event wave, clumps land at distinct times.
  uint16_t next_seq = 0;
  Time at = Time::Zero();
  const int clumps = static_cast<int>(rng.UniformInt(uint64_t{4}, uint64_t{8}));
  for (int c = 0; c < clumps; ++c) {
    at = at + Microseconds(static_cast<int64_t>(rng.UniformInt(uint64_t{1}, uint64_t{500})));
    const int size = static_cast<int>(rng.UniformInt(uint64_t{1}, uint64_t{20}));
    sim.ScheduleAt(at, [&a, next_seq, size] {
      for (int i = 0; i < size; ++i) {
        const uint16_t seq = static_cast<uint16_t>(next_seq + i);
        a.stack().SendDatagram(
            Ipv4Address::Any(), Ipv4Address(10, 0, 0, 2), IpProto::kTcp,
            {static_cast<uint8_t>(seq >> 8), static_cast<uint8_t>(seq & 0xff)});
      }
    });
    next_seq = static_cast<uint16_t>(next_seq + size);
  }
  sim.Run();

  ASSERT_EQ(transmitted.size(), static_cast<size_t>(next_seq))
      << "device dropped or duplicated frames";
  for (uint16_t i = 0; i < next_seq; ++i) {
    ASSERT_EQ(transmitted[i], i) << "FIFO order broken at frame " << i;
  }
  // Lossless medium: everything also arrives, in whatever jittered order.
  EXPECT_EQ(received.size(), static_cast<size_t>(next_seq));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZeroSerializationFifoProperty,
                         ::testing::Values(7, 19, 23, 77, 1996));

}  // namespace
}  // namespace msn
