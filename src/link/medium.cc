#include "src/link/medium.h"

#include <algorithm>

#include "src/link/link_device.h"
#include "src/util/logging.h"

namespace msn {

BroadcastMedium::BroadcastMedium(Simulator& sim, std::string name, MediumParams params,
                                 MetricsRegistry* metrics)
    : sim_(sim), name_(std::move(name)), params_(params), metrics_(metrics) {
  if (metrics_ == nullptr) {
    return;
  }
  const std::string prefix = "link." + name_ + ".";
  metrics_->BindCounter(prefix + "frames_carried", &counters_.frames_carried);
  metrics_->BindCounter(prefix + "frames_dropped", &counters_.frames_dropped);
  metrics_->BindCounter(prefix + "frames_fault_dropped", &counters_.frames_fault_dropped);
  metrics_->BindCounter(prefix + "frames_unmatched", &counters_.frames_unmatched);
}

BroadcastMedium::~BroadcastMedium() {
  for (LinkDevice* device : devices_) {
    device->MediumDestroyed();
  }
  if (metrics_ != nullptr) {
    metrics_->ReleaseCounters(counters_);
  }
}

void BroadcastMedium::Attach(LinkDevice* device) {
  if (std::find(devices_.begin(), devices_.end(), device) == devices_.end()) {
    devices_.push_back(device);
  }
}

void BroadcastMedium::Detach(LinkDevice* device) {
  devices_.erase(std::remove(devices_.begin(), devices_.end(), device), devices_.end());
}

Duration BroadcastMedium::DrawLatency() {
  if (params_.latency_jitter.nanos() <= 0) {
    return params_.latency;
  }
  const double ns = sim_.rng().NormalAtLeast(
      static_cast<double>(params_.latency.nanos()),
      static_cast<double>(params_.latency_jitter.nanos()),
      static_cast<double>(params_.latency.nanos()) * 0.2);
  return Duration::FromNanos(static_cast<int64_t>(ns));
}

void BroadcastMedium::NotifyDrop(const EthernetFrame& frame, FrameDropReason reason) {
  if (drop_tap_) {
    drop_tap_(frame, reason);
  }
}

void BroadcastMedium::DeliverAfterLatency(LinkDevice* target, const EthernetFrame& frame) {
  if (params_.drop_probability > 0.0 && sim_.rng().Bernoulli(params_.drop_probability)) {
    ++counters_.frames_dropped;
    MSN_DEBUG("medium", "%s: dropped frame %s", name_.c_str(), frame.ToString().c_str());
    NotifyDrop(frame, FrameDropReason::kRandomLoss);
    return;
  }
  // The frame is not copied up front: a broadcast shares one immutable
  // buffer across every receiver, and each delivery callback holds only a
  // refcounted reference. The fault hook is the one mutator; when installed
  // it works on an explicit frame copy whose payload COWs on first write.
  FaultVerdict verdict;
  EthernetFrame mutated;
  if (fault_hook_) {
    mutated = frame;
    verdict = fault_hook_(target, mutated);
  }
  const EthernetFrame& delivered = fault_hook_ ? mutated : frame;
  if (verdict.drop) {
    ++counters_.frames_fault_dropped;
    MSN_DEBUG("medium", "%s: fault-dropped frame %s", name_.c_str(),
              delivered.ToString().c_str());
    NotifyDrop(delivered, FrameDropReason::kFaultInjected);
    return;
  }
  // Each copy (the original plus any injected duplicates) draws its own
  // latency, so duplicates also land out of order.
  const int copies = 1 + std::max(0, verdict.duplicates);
  for (int i = 0; i < copies; ++i) {
    sim_.Schedule(DrawLatency() + verdict.extra_latency,
                  [target, f = delivered]() mutable { target->DeliverFrame(std::move(f)); });
  }
}

void BroadcastMedium::FrameFromDevice(LinkDevice* sender, const EthernetFrame& frame) {
  ++counters_.frames_carried;
  if (frame.dst.IsBroadcast()) {
    for (LinkDevice* dev : devices_) {
      if (dev != sender) {
        DeliverAfterLatency(dev, frame);
      }
    }
    return;
  }
  bool matched = false;
  for (LinkDevice* dev : devices_) {
    if (dev != sender && dev->mac() == frame.dst) {
      DeliverAfterLatency(dev, frame);
      matched = true;
    }
  }
  if (!matched) {
    ++counters_.frames_unmatched;
    NotifyDrop(frame, FrameDropReason::kUnmatched);
  }
}

}  // namespace msn
