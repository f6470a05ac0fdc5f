// Unit tests for src/link: devices, bring-up, media, timing, loss.
#include <gtest/gtest.h>

#include "src/link/link_device.h"
#include "src/link/medium.h"
#include "src/sim/simulator.h"

namespace msn {
namespace {

EthernetFrame MakeFrame(MacAddress src, MacAddress dst, size_t payload_size = 50) {
  EthernetFrame frame;
  frame.src = src;
  frame.dst = dst;
  frame.payload = std::vector<uint8_t>(payload_size, 0xaa);
  return frame;
}

class LinkTest : public ::testing::Test {
 protected:
  LinkTest()
      : sim_(123),
        medium_(sim_, "seg", EthernetMediumParams()),
        a_(sim_, "a0", MacAddress::FromId(1001)),
        b_(sim_, "b0", MacAddress::FromId(1002)),
        c_(sim_, "c0", MacAddress::FromId(1003)) {
    for (EthernetDevice* dev : {&a_, &b_, &c_}) {
      dev->AttachTo(&medium_);
      dev->ForceUp();
    }
  }

  int CountReceived(EthernetDevice& dev) {
    return static_cast<int>(dev.counters().rx_frames);
  }

  Simulator sim_;
  BroadcastMedium medium_;
  EthernetDevice a_, b_, c_;
};

TEST_F(LinkTest, UnicastReachesOnlyTarget) {
  ASSERT_TRUE(a_.Transmit(MakeFrame(a_.mac(), b_.mac())));
  sim_.Run();
  EXPECT_EQ(CountReceived(b_), 1);
  EXPECT_EQ(CountReceived(c_), 0);
  EXPECT_EQ(CountReceived(a_), 0);
  EXPECT_EQ(a_.counters().tx_frames, 1u);
}

TEST_F(LinkTest, BroadcastReachesAllButSender) {
  ASSERT_TRUE(a_.Transmit(MakeFrame(a_.mac(), MacAddress::Broadcast())));
  sim_.Run();
  EXPECT_EQ(CountReceived(b_), 1);
  EXPECT_EQ(CountReceived(c_), 1);
  EXPECT_EQ(CountReceived(a_), 0);
}

TEST_F(LinkTest, ReceiveHandlerInvoked) {
  int handled = 0;
  b_.SetReceiveHandler([&](NetDevice& dev, const EthernetFrame& frame) {
    ++handled;
    EXPECT_EQ(&dev, &b_);
    EXPECT_EQ(frame.src, a_.mac());
  });
  a_.Transmit(MakeFrame(a_.mac(), b_.mac()));
  sim_.Run();
  EXPECT_EQ(handled, 1);
}

TEST_F(LinkTest, TransmitWhileDownFails) {
  a_.TakeDown();
  EXPECT_FALSE(a_.Transmit(MakeFrame(a_.mac(), b_.mac())));
  EXPECT_EQ(a_.counters().dropped_down, 1u);
  sim_.Run();
  EXPECT_EQ(CountReceived(b_), 0);
}

TEST_F(LinkTest, DeliveryToDownDeviceDropped) {
  b_.TakeDown();
  a_.Transmit(MakeFrame(a_.mac(), b_.mac()));
  sim_.Run();
  EXPECT_EQ(CountReceived(b_), 0);
  EXPECT_EQ(b_.counters().dropped_rx_down, 1u);
}

TEST_F(LinkTest, SerializationDelayMatchesBandwidth) {
  // 1000-byte payload + 18 overhead at 10 Mb/s = 814.4 us, plus ~30 us medium
  // latency.
  Time delivered;
  b_.SetReceiveHandler([&](NetDevice&, const EthernetFrame&) { delivered = sim_.Now(); });
  a_.Transmit(MakeFrame(a_.mac(), b_.mac(), 1000));
  sim_.Run();
  const double us = static_cast<double>(delivered.nanos()) / 1000.0;
  EXPECT_GT(us, 814.0);
  EXPECT_LT(us, 900.0);
}

TEST_F(LinkTest, BackToBackFramesSerializeSequentially) {
  std::vector<Time> deliveries;
  b_.SetReceiveHandler([&](NetDevice&, const EthernetFrame&) {
    deliveries.push_back(sim_.Now());
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(a_.Transmit(MakeFrame(a_.mac(), b_.mac(), 1000)));
  }
  sim_.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  // Each frame is separated by at least its serialization time (~814 us).
  EXPECT_GT((deliveries[1] - deliveries[0]).micros(), 700);
  EXPECT_GT((deliveries[2] - deliveries[1]).micros(), 700);
}

TEST_F(LinkTest, QueueOverflowDrops) {
  a_.set_queue_capacity(4);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    ok += a_.Transmit(MakeFrame(a_.mac(), b_.mac(), 1000)) ? 1 : 0;
  }
  // One dequeued immediately into transmission + 4 queued... the first frame
  // is popped synchronously, so 5 accepted.
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(a_.counters().dropped_queue, 5u);
  sim_.Run();
  EXPECT_EQ(CountReceived(b_), 5);
}

TEST_F(LinkTest, BringUpTakesConfiguredTime) {
  a_.TakeDown();
  a_.set_bring_up_time(Milliseconds(500));
  a_.set_bring_up_jitter(0.0);
  Time up_at;
  bool up = false;
  a_.BringUp([&] {
    up = true;
    up_at = sim_.Now();
  });
  EXPECT_EQ(a_.state(), NetDevice::State::kBringingUp);
  EXPECT_FALSE(a_.IsUp());
  sim_.Run();
  EXPECT_TRUE(up);
  EXPECT_TRUE(a_.IsUp());
  EXPECT_EQ(up_at.nanos(), Milliseconds(500).nanos());
}

TEST_F(LinkTest, BringUpOnUpDeviceIsImmediate) {
  bool called = false;
  a_.BringUp([&] { called = true; });
  EXPECT_TRUE(called);  // No simulation step needed.
}

TEST_F(LinkTest, TakeDownCancelsInFlightBringUp) {
  a_.TakeDown();
  bool up = false;
  a_.BringUp([&] { up = true; });
  a_.TakeDown();
  sim_.Run();
  EXPECT_FALSE(up);
  EXPECT_EQ(a_.state(), NetDevice::State::kDown);
}

// Forcing a device up under an in-flight bring-up would swallow the
// bring-up's completion; it fails loudly instead.
TEST_F(LinkTest, ForceUpDuringBringUpDies) {
  a_.TakeDown();
  a_.BringUp();
  EXPECT_DEATH(a_.ForceUp(), "ForceUp during a bring-up");
}

TEST_F(LinkTest, TakeDownDiscardsQueuedFrames) {
  for (int i = 0; i < 3; ++i) {
    a_.Transmit(MakeFrame(a_.mac(), b_.mac(), 1000));
  }
  a_.TakeDown();
  sim_.Run();
  EXPECT_EQ(CountReceived(b_), 0);
}

TEST_F(LinkTest, DetachedDeviceSendsNowhere) {
  a_.AttachTo(nullptr);
  a_.Transmit(MakeFrame(a_.mac(), b_.mac()));
  sim_.Run();
  EXPECT_EQ(CountReceived(b_), 0);
}

TEST_F(LinkTest, ReattachMovesBroadcastDomain) {
  BroadcastMedium other(sim_, "other", EthernetMediumParams());
  a_.AttachTo(&other);
  a_.Transmit(MakeFrame(a_.mac(), MacAddress::Broadcast()));
  sim_.Run();
  EXPECT_EQ(CountReceived(b_), 0);  // b is on the old segment.
}

TEST(RadioTest, RandomDropsOccur) {
  Simulator sim(5);
  MediumParams params = RadioMediumParams();
  params.drop_probability = 0.5;
  BroadcastMedium cell(sim, "cell", params);
  StripRadioDevice tx(sim, "r1", MacAddress::FromId(1));
  StripRadioDevice rx(sim, "r2", MacAddress::FromId(2));
  tx.AttachTo(&cell);
  rx.AttachTo(&cell);
  tx.ForceUp();
  rx.ForceUp();
  tx.set_queue_capacity(256);

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tx.Transmit(MakeFrame(tx.mac(), rx.mac(), 10)));
  }
  sim.Run();
  const uint64_t received = rx.counters().rx_frames;
  EXPECT_GT(received, 60u);
  EXPECT_LT(received, 140u);
  EXPECT_EQ(cell.counters().frames_dropped, 200 - received);
}

TEST(RadioTest, RadioIsSlowerThanEthernet) {
  Simulator sim(6);
  BroadcastMedium cell(sim, "cell", RadioMediumParams());
  StripRadioDevice tx(sim, "r1", MacAddress::FromId(1));
  StripRadioDevice rx(sim, "r2", MacAddress::FromId(2));
  tx.AttachTo(&cell);
  rx.AttachTo(&cell);
  tx.ForceUp();
  rx.ForceUp();

  Time delivered;
  rx.SetReceiveHandler([&](NetDevice&, const EthernetFrame&) { delivered = sim.Now(); });
  tx.Transmit(MakeFrame(tx.mac(), rx.mac(), 100));
  sim.Run();
  // ~27 ms serialization at 35 kb/s + ~85 ms air latency.
  EXPECT_GT(delivered.ToMillisF(), 80.0);
  EXPECT_LT(delivered.ToMillisF(), 160.0);
}

TEST(LoopbackTest, FrameComesStraightBack) {
  Simulator sim;
  LoopbackDevice lo(sim);
  lo.ForceUp();
  int received = 0;
  lo.SetReceiveHandler([&](NetDevice&, const EthernetFrame&) { ++received; });
  EthernetFrame frame;
  frame.payload = {1, 2, 3};
  ASSERT_TRUE(lo.Transmit(frame));
  sim.Run();
  EXPECT_EQ(received, 1);
}

TEST(MediumTest, UnmatchedDestinationCounted) {
  Simulator sim;
  BroadcastMedium medium(sim, "seg", EthernetMediumParams());
  EthernetDevice a(sim, "a", MacAddress::FromId(1));
  a.AttachTo(&medium);
  a.ForceUp();
  a.Transmit(MakeFrame(a.mac(), MacAddress::FromId(99)));
  sim.Run();
  EXPECT_EQ(medium.counters().frames_unmatched, 1u);
}

}  // namespace
}  // namespace msn
