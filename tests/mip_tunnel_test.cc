// Unit tests for IP-in-IP encapsulation, the tunnel endpoint, and the VIF.
#include <gtest/gtest.h>

#include "src/mip/ipip.h"
#include "src/mip/vif.h"
#include "src/node/node.h"

namespace msn {
namespace {

Ipv4Datagram MakeInner() {
  Ipv4Datagram inner;
  inner.header.protocol = IpProto::kUdp;
  inner.header.src = Ipv4Address(36, 8, 0, 20);
  inner.header.dst = Ipv4Address(36, 135, 0, 10);
  inner.header.ttl = 60;
  inner.payload = {1, 2, 3, 4, 5};
  return inner;
}

// Builds `inner`'s wire image and tunnels it src -> dst; `outer` receives the
// outer header.
Packet Tunnel(Ipv4Datagram inner, Ipv4Address src, Ipv4Address dst, Ipv4Header& outer) {
  return EncapsulateIpIpPacket(outer, BuildIpv4Packet(inner.header, inner.payload), src, dst);
}

// The IPIP payload of a tunnel wire image: everything after the outer header.
std::span<const uint8_t> OuterPayload(const Packet& wire) {
  return wire.span().subspan(Ipv4Header::kSize);
}

TEST(IpIpTest, EncapsulateAddsExactlyOneHeader) {
  const Ipv4Datagram inner = MakeInner();
  Ipv4Header outer;
  const Packet wire =
      Tunnel(inner, Ipv4Address(36, 135, 0, 1), Ipv4Address(36, 8, 0, 50), outer);

  EXPECT_EQ(outer.protocol, IpProto::kIpIp);
  EXPECT_EQ(outer.src, Ipv4Address(36, 135, 0, 1));
  EXPECT_EQ(outer.dst, Ipv4Address(36, 8, 0, 50));
  // The paper's "20 bytes or more" encapsulation overhead: exactly 20 here.
  EXPECT_EQ(wire.size(), inner.Serialize().size() + Ipv4Header::kSize);
  EXPECT_EQ(outer.total_length, wire.size());
}

TEST(IpIpTest, DecapsulateRecoversInnerExactly) {
  const Ipv4Datagram inner = MakeInner();
  Ipv4Header outer;
  const Packet wire = Tunnel(inner, Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), outer);
  auto recovered = DecapsulateIpIp(OuterPayload(wire));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->header.src, inner.header.src);
  EXPECT_EQ(recovered->header.dst, inner.header.dst);
  EXPECT_EQ(recovered->header.ttl, inner.header.ttl);
  EXPECT_EQ(recovered->payload, inner.payload);
}

TEST(IpIpTest, DecapsulateRejectsGarbage) {
  const std::vector<uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(DecapsulateIpIp(garbage).has_value());
}

TEST(IpIpTest, NestedEncapsulationUnwrapsOneLayerAtATime) {
  const Ipv4Datagram inner = MakeInner();
  Ipv4Header mid, outer;
  Packet wire = Tunnel(inner, Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), mid);
  wire = EncapsulateIpIpPacket(outer, std::move(wire), Ipv4Address(3, 3, 3, 3),
                               Ipv4Address(4, 4, 4, 4));
  auto layer1 = DecapsulateIpIp(OuterPayload(wire));
  ASSERT_TRUE(layer1.has_value());
  EXPECT_EQ(layer1->header.protocol, IpProto::kIpIp);
  auto layer2 = DecapsulateIpIp(layer1->payload);
  ASSERT_TRUE(layer2.has_value());
  EXPECT_EQ(layer2->payload, inner.payload);
}

class TunnelEndpointTest : public ::testing::Test {
 protected:
  TunnelEndpointTest() : sim_(4), node_(sim_, "host") {
    seg_ = std::make_unique<BroadcastMedium>(sim_, "seg", EthernetMediumParams());
    dev_ = node_.AddEthernet("eth0", seg_.get());
    dev_->ForceUp();
    node_.ConfigureInterface(dev_, "10.0.0.1/24");
  }

  Simulator sim_;
  std::unique_ptr<BroadcastMedium> seg_;
  Node node_;
  EthernetDevice* dev_;
};

TEST_F(TunnelEndpointTest, DecapsulatesAndDeliversInner) {
  IpIpTunnelEndpoint endpoint(node_.stack());
  int delivered = 0;
  node_.stack().RegisterProtocolHandler(
      IpProto::kTcp,
      [&](const Ipv4Header& h, const Packet&, NetDevice*) {
        EXPECT_EQ(h.dst, Ipv4Address(10, 0, 0, 1));
        ++delivered;
      });

  Ipv4Datagram inner;
  inner.header.protocol = IpProto::kTcp;
  inner.header.src = Ipv4Address(9, 9, 9, 9);
  inner.header.dst = Ipv4Address(10, 0, 0, 1);  // Local on this node.
  inner.payload = {1};
  Ipv4Header outer;
  Packet wire = Tunnel(inner, Ipv4Address(8, 8, 8, 8), Ipv4Address(10, 0, 0, 1), outer);
  node_.stack().InjectReceivedPacket(outer, std::move(wire), nullptr);
  sim_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(endpoint.packets_decapsulated(), 1u);
}

TEST_F(TunnelEndpointTest, InspectorCanVeto) {
  IpIpTunnelEndpoint endpoint(node_.stack());
  endpoint.SetInspector(
      [](const Ipv4Header&, const Ipv4Header&, const Packet&) { return false; });
  int delivered = 0;
  node_.stack().RegisterProtocolHandler(
      IpProto::kTcp,
      [&](const Ipv4Header&, const Packet&, NetDevice*) { ++delivered; });

  Ipv4Datagram inner;
  inner.header.protocol = IpProto::kTcp;
  inner.header.dst = Ipv4Address(10, 0, 0, 1);
  Ipv4Header outer;
  Packet wire = Tunnel(inner, Ipv4Address(8, 8, 8, 8), Ipv4Address(10, 0, 0, 1), outer);
  node_.stack().InjectReceivedPacket(outer, std::move(wire), nullptr);
  sim_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(endpoint.packets_decapsulated(), 0u);
}

TEST_F(TunnelEndpointTest, InspectorSeesInnerWithoutCopy) {
  IpIpTunnelEndpoint endpoint(node_.stack());
  Ipv4Header inner;
  inner.protocol = IpProto::kTcp;
  inner.src = Ipv4Address(9, 9, 9, 9);
  inner.dst = Ipv4Address(10, 0, 0, 1);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6};
  Ipv4Header outer;
  const Packet wire = EncapsulateIpIpPacket(outer, BuildIpv4Packet(inner, payload),
                                            Ipv4Address(8, 8, 8, 8), Ipv4Address(10, 0, 0, 1));

  int inspected = 0;
  endpoint.SetInspector([&](const Ipv4Header& seen_outer, const Ipv4Header& seen_inner,
                            const Packet& inner_wire) {
    ++inspected;
    EXPECT_EQ(seen_outer.src, Ipv4Address(8, 8, 8, 8));
    EXPECT_EQ(seen_inner.src, inner.src);
    EXPECT_EQ(seen_inner.total_length, inner.total_length);
    // The inner wire image is a view of the received outer packet, trimmed
    // to the inner datagram: same storage, no bytes copied.
    EXPECT_TRUE(inner_wire.SharesStorageWith(wire));
    EXPECT_EQ(inner_wire.data(), wire.data() + Ipv4Header::kSize);
    EXPECT_EQ(inner_wire.size(), inner.total_length);
    return false;
  });
  const Packet::Stats before = Packet::stats();
  node_.stack().InjectReceivedPacket(outer, wire, nullptr);
  sim_.Run();
  EXPECT_EQ(inspected, 1);
  EXPECT_EQ(Packet::stats().copies, before.copies);
  EXPECT_EQ(Packet::stats().allocations, before.allocations);
}

TEST_F(TunnelEndpointTest, CorruptInnerCounted) {
  IpIpTunnelEndpoint endpoint(node_.stack());
  Ipv4Datagram outer;
  outer.header.protocol = IpProto::kIpIp;
  outer.header.dst = Ipv4Address(10, 0, 0, 1);
  outer.payload = {1, 2, 3};  // Not a valid datagram.
  node_.stack().InjectReceivedDatagram(outer, nullptr);
  sim_.Run();
  EXPECT_EQ(endpoint.decapsulation_errors(), 1u);
}

TEST_F(TunnelEndpointTest, VifHandsDatagramToEncapHandler) {
  auto vif_owned = std::make_unique<VirtualInterface>(sim_, "vif");
  VirtualInterface* vif = vif_owned.get();
  std::optional<Ipv4Datagram> seen;
  vif->SetEncapHandler([&](const Ipv4Header& header, const Packet& wire) {
    Ipv4Datagram dg;
    dg.header = header;
    dg.payload.assign(wire.begin() + Ipv4Header::kSize, wire.end());
    seen = std::move(dg);
  });
  node_.AdoptDevice(std::move(vif_owned));

  // Route everything to 42.0.0.0/8 through the VIF.
  node_.stack().routes().Add(
      RouteEntry{Subnet::MustParse("42.0.0.0/8"), Ipv4Address::Any(), vif,
                 Ipv4Address(10, 0, 0, 1), 0});
  node_.stack().SendDatagram(Ipv4Address::Any(), Ipv4Address(42, 1, 2, 3), IpProto::kUdp,
                             {7, 7});
  sim_.Run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->header.dst, Ipv4Address(42, 1, 2, 3));
  EXPECT_EQ(seen->header.src, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(seen->payload, (std::vector<uint8_t>{7, 7}));
  EXPECT_EQ(vif->packets_encapsulated(), 1u);
}

TEST_F(TunnelEndpointTest, VifWithoutHandlerDropsGracefully) {
  auto vif_owned = std::make_unique<VirtualInterface>(sim_, "vif");
  VirtualInterface* vif = vif_owned.get();
  node_.AdoptDevice(std::move(vif_owned));
  EthernetFrame frame;
  frame.ethertype = EtherType::kIpv4;
  frame.payload = {1, 2, 3};
  EXPECT_FALSE(vif->Transmit(frame));
}

TEST_F(TunnelEndpointTest, VifIsAlwaysUp) {
  VirtualInterface vif(sim_, "vif");
  EXPECT_TRUE(vif.IsUp());
  EXPECT_EQ(vif.bandwidth_bps(), 0u);
}

}  // namespace
}  // namespace msn
