#include "src/link/net_device.h"

#include <utility>

#include "src/telemetry/metrics.h"
#include "src/util/assert.h"
#include "src/util/logging.h"

namespace msn {

NetDevice::NetDevice(Simulator& sim, std::string name, MacAddress mac)
    : sim_(sim), name_(std::move(name)), mac_(mac) {}

void NetDevice::BindQueueDepthGauge(Gauge* gauge) {
  queue_depth_gauge_ = gauge;
  UpdateQueueDepthGauge();
}

void NetDevice::UpdateQueueDepthGauge() {
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
}

void NetDevice::BringUp(std::function<void()> done) {
  if (state_ == State::kUp) {
    if (done) {
      done();
    }
    return;
  }
  if (state_ == State::kBringingUp) {
    // The new generation below invalidates the bring-up in flight: its
    // `done` never runs, and the delay is drawn afresh.
    MSN_WARN("link", "%s: BringUp while already bringing up", name_.c_str());
  }
  state_ = State::kBringingUp;
  const uint64_t generation = ++bring_up_generation_;
  const double mean_ns = static_cast<double>(bring_up_time_.nanos());
  const double jitter_ns = mean_ns * bring_up_jitter_;
  const Duration delay = Duration::FromNanos(static_cast<int64_t>(
      sim_.rng().NormalAtLeast(mean_ns, jitter_ns, mean_ns * 0.25)));
  MSN_DEBUG("link", "%s: bringing up (%.1fms)", name_.c_str(), delay.ToMillisF());
  sim_.Schedule(delay, [this, generation, done = std::move(done)] {
    if (generation != bring_up_generation_ || state_ != State::kBringingUp) {
      return;  // TakeDown() raced with the bring-up.
    }
    state_ = State::kUp;
    MSN_DEBUG("link", "%s: up", name_.c_str());
    if (done) {
      done();
    }
  });
}

void NetDevice::ForceUp() {
  MSN_CHECK(state_ != State::kBringingUp) << name_ << ": ForceUp during a bring-up";
  state_ = State::kUp;
}

void NetDevice::TakeDown() {
  ++bring_up_generation_;
  state_ = State::kDown;
  queue_.clear();
  UpdateQueueDepthGauge();
  transmitting_ = false;
  MSN_DEBUG("link", "%s: down", name_.c_str());
}

Duration NetDevice::SerializationDelay(size_t wire_bytes) const {
  const uint64_t bps = bandwidth_bps();
  if (bps == 0) {
    return Duration();
  }
  const double seconds = static_cast<double>(wire_bytes) * 8.0 / static_cast<double>(bps);
  return SecondsF(seconds);
}

// msn-lint: allow(perf/frame-by-value) — ownership sink; callers move.
bool NetDevice::Transmit(EthernetFrame frame) {
  if (state_ != State::kUp) {
    ++counters_.dropped_down;
    return false;
  }
  if (queue_.size() >= queue_capacity_) {
    ++counters_.dropped_queue;
    return false;
  }
  queue_.push_back(std::move(frame));
  UpdateQueueDepthGauge();
  if (!transmitting_) {
    StartNextTransmission();
  }
  return true;
}

void NetDevice::StartNextTransmission() {
  if (queue_.empty() || state_ != State::kUp) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  EthernetFrame frame = std::move(queue_.front());
  queue_.pop_front();
  UpdateQueueDepthGauge();
  const Duration delay = SerializationDelay(frame.WireSize());
  const uint64_t generation = bring_up_generation_;
  sim_.Schedule(delay, [this, generation, frame = std::move(frame)] {
    if (generation != bring_up_generation_ || state_ != State::kUp) {
      return;  // Interface went down mid-transmission.
    }
    ++counters_.tx_frames;
    counters_.tx_bytes += frame.WireSize();
    NotifyTap(frame, TapDirection::kTransmit);
    SendToMedium(frame);
    StartNextTransmission();
  });
}

void NetDevice::DeliverFrame(EthernetFrame&& frame) {
  if (state_ != State::kUp) {
    ++counters_.dropped_rx_down;
    return;
  }
  ++counters_.rx_frames;
  counters_.rx_bytes += frame.WireSize();
  NotifyTap(frame, TapDirection::kReceive);
  if (receive_handler_) {
    receive_handler_(*this, std::move(frame));
  }
}

}  // namespace msn
