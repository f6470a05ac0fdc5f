// Link-layer device model.
//
// A NetDevice is the simulation analogue of a Linux network interface: it has
// a MAC address, an up/down state, a transmit queue drained at the link
// bandwidth, and a bring-up latency modelling driver/hardware initialization.
// The bring-up latency is what dominates the paper's *cold switch* cost
// (Figure 6), so it is a first-class, configurable property here.
#ifndef MSN_SRC_LINK_NET_DEVICE_H_
#define MSN_SRC_LINK_NET_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "src/net/frame.h"
#include "src/sim/simulator.h"

namespace msn {

class Gauge;

class NetDevice {
 public:
  // Invoked when a frame arrives addressed to this device (or broadcast).
  // The frame is passed as an rvalue: the device hands over its (refcounted)
  // ownership so the stack can consume the payload without a copy. Handlers
  // that only observe may still bind it as `const EthernetFrame&`.
  using FrameHandler = std::function<void(NetDevice&, EthernetFrame&&)>;

  enum class State {
    kDown,
    kBringingUp,
    kUp,
  };

  struct Counters {
    uint64_t tx_frames = 0;
    uint64_t tx_bytes = 0;
    uint64_t rx_frames = 0;
    uint64_t rx_bytes = 0;
    uint64_t dropped_down = 0;   // Transmit attempted while interface down.
    uint64_t dropped_queue = 0;  // Transmit queue overflow.
    uint64_t dropped_rx_down = 0;  // Frame arrived while interface down.
    // Always zero: every frame completes in its own event. Kept for
    // readers that still export them.
    uint64_t tx_bursts = 0;
    uint64_t tx_burst_frames = 0;
  };

  NetDevice(Simulator& sim, std::string name, MacAddress mac);
  virtual ~NetDevice() = default;

  NetDevice(const NetDevice&) = delete;
  NetDevice& operator=(const NetDevice&) = delete;

  const std::string& name() const { return name_; }
  MacAddress mac() const { return mac_; }
  State state() const { return state_; }
  bool IsUp() const { return state_ == State::kUp; }
  const Counters& counters() const { return counters_; }
  Simulator& sim() { return sim_; }

  // Begins bring-up; transitions to kUp after bring_up_time (with jitter) and
  // then invokes `done`. Calling BringUp on an already-up device invokes
  // `done` immediately; calling it during a bring-up restarts the delay and
  // drops the earlier caller's `done`. This is the expensive step of a cold
  // switch.
  void BringUp(std::function<void()> done = nullptr);
  // Immediate down transition; pending transmissions are discarded.
  void TakeDown();
  // Immediate up transition with no bring-up delay: topology setup, or
  // association of a device that is down. Checks that no bring-up is in
  // flight, whose completion would otherwise never run.
  void ForceUp();

  Duration bring_up_time() const { return bring_up_time_; }
  void set_bring_up_time(Duration d) { bring_up_time_ = d; }
  // Fractional jitter applied to bring-up time (stddev = mean * jitter).
  void set_bring_up_jitter(double j) { bring_up_jitter_ = j; }

  // Queues a frame for transmission. Returns false (and counts a drop) if the
  // device is down or the queue is full. Takes the frame by value: callers
  // that are done with it move it in, so the payload reaches the queue (or
  // the VIF's encapsulation) without an extra reference that would make a
  // later Prepend or TTL patch copy.
  // msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
  virtual bool Transmit(EthernetFrame frame);

  // Nominal link bandwidth used for serialization delay.
  virtual uint64_t bandwidth_bps() const = 0;

  // Largest IP datagram this link carries (Ethernet: 1500; the STRIP radio
  // uses a smaller frame). Oversized datagrams are fragmented or, with DF
  // set, rejected with ICMP fragmentation-needed.
  size_t mtu() const { return mtu_; }
  void set_mtu(size_t mtu) { mtu_ = mtu; }

  // Delivery from the medium. Drops silently if the device is down. Takes
  // ownership of the frame (a refcounted handle, so callers keeping their own
  // copy just bump the count) and hands it to the receive handler.
  void DeliverFrame(EthernetFrame&& frame);

  void SetReceiveHandler(FrameHandler handler) { receive_handler_ = std::move(handler); }

  // Monitoring tap: sees every frame this device transmits or receives
  // (after the up/down check), like a packet capture on a real interface.
  enum class TapDirection { kTransmit, kReceive };
  using TapCallback = std::function<void(const EthernetFrame& frame, TapDirection dir)>;
  void SetTap(TapCallback tap) { tap_ = std::move(tap); }
  void ClearTap() { tap_ = nullptr; }

  size_t queue_capacity() const { return queue_capacity_; }
  void set_queue_capacity(size_t n) { queue_capacity_ = n; }
  size_t queue_depth() const { return queue_.size(); }

  // Mirrors the live transmit-queue depth into a registry-owned gauge
  // (telemetry: "dev.<node>.<dev>.queue_depth"). The gauge must outlive the
  // device; Node wires this up when it owns a metrics registry.
  void BindQueueDepthGauge(Gauge* gauge);

 protected:
  // Hands a fully serialized frame to the underlying medium. Called once the
  // serialization delay has elapsed.
  virtual void SendToMedium(const EthernetFrame& frame) = 0;

  Duration SerializationDelay(size_t wire_bytes) const;

  Simulator& sim_;

 private:
  void StartNextTransmission();

  std::string name_;
  MacAddress mac_;
  size_t mtu_ = 1500;
  State state_ = State::kDown;
  Duration bring_up_time_ = Milliseconds(500);
  double bring_up_jitter_ = 0.1;
  uint64_t bring_up_generation_ = 0;  // Invalidates in-flight bring-ups on TakeDown.

  std::deque<EthernetFrame> queue_;
  size_t queue_capacity_ = 128;
  bool transmitting_ = false;

  FrameHandler receive_handler_;
  TapCallback tap_;
  Counters counters_;
  Gauge* queue_depth_gauge_ = nullptr;

  void UpdateQueueDepthGauge();

 protected:
  // Lets subclasses that bypass the queue (VirtualInterface) feed the tap.
  void NotifyTap(const EthernetFrame& frame, TapDirection dir) {
    if (tap_) {
      tap_(frame, dir);
    }
  }
};

}  // namespace msn

#endif  // MSN_SRC_LINK_NET_DEVICE_H_
