#include "src/fault/fault_injector.h"

#include <algorithm>

#include "src/util/logging.h"

namespace msn {

FaultInjector::FaultInjector(Simulator& sim, BroadcastMedium& medium, MetricsRegistry* metrics)
    : sim_(sim), medium_(medium), metrics_(metrics) {
  if (metrics_ != nullptr) {
    const std::string prefix = "fault." + medium_.name() + ".";
    metrics_->BindCounter(prefix + "frames_seen", &counters_.frames_seen);
    metrics_->BindCounter(prefix + "burst_drops", &counters_.burst_drops);
    metrics_->BindCounter(prefix + "blackout_drops", &counters_.blackout_drops);
    metrics_->BindCounter(prefix + "duplicates", &counters_.duplicates);
    metrics_->BindCounter(prefix + "reorders", &counters_.reorders);
    metrics_->BindCounter(prefix + "corruptions", &counters_.corruptions);
  }
  medium_.SetFaultHook(
      [this](LinkDevice* target, EthernetFrame& frame) { return OnFrame(target, frame); });
}

FaultInjector::~FaultInjector() {
  medium_.ClearFaultHook();
  if (metrics_ != nullptr) {
    metrics_->ReleaseCounters(counters_);
  }
}

void FaultInjector::StartBlackout() {
  blackout_active_ = true;
  MSN_DEBUG("fault", "%s: blackout begins", medium_.name().c_str());
}

void FaultInjector::EndBlackout() {
  blackout_active_ = false;
  MSN_DEBUG("fault", "%s: blackout ends", medium_.name().c_str());
}

void FaultInjector::BlackoutFor(Duration length) {
  StartBlackout();
  const uint64_t generation = ++blackout_generation_;
  sim_.Schedule(length, [this, generation] {
    if (generation == blackout_generation_ && blackout_active_) {
      EndBlackout();
    }
  });
}

FaultVerdict FaultInjector::OnFrame(LinkDevice* /*target*/, EthernetFrame& frame) {
  ++counters_.frames_seen;
  FaultVerdict verdict;

  if (blackout_active_) {
    ++counters_.blackout_drops;
    verdict.drop = true;
    return verdict;
  }

  if (profile_.burst_loss.has_value()) {
    const GilbertElliottParams& ge = *profile_.burst_loss;
    // Advance the Markov chain one step, then draw loss from the new state.
    if (in_burst_) {
      if (sim_.rng().Bernoulli(ge.p_exit_burst)) in_burst_ = false;
    } else {
      if (sim_.rng().Bernoulli(ge.p_enter_burst)) in_burst_ = true;
    }
    const double loss = in_burst_ ? ge.loss_bad : ge.loss_good;
    if (loss > 0.0 && sim_.rng().Bernoulli(loss)) {
      ++counters_.burst_drops;
      verdict.drop = true;
      return verdict;
    }
  }

  if (profile_.corrupt_probability > 0.0 && !frame.payload.empty() &&
      sim_.rng().Bernoulli(profile_.corrupt_probability)) {
    // Flip one random bit; the IP header / UDP checksums downstream must
    // catch it and count it as drop_bad_packet.
    const size_t byte = static_cast<size_t>(
        sim_.rng().UniformInt(uint64_t{0}, uint64_t{frame.payload.size() - 1}));
    const int bit = static_cast<int>(sim_.rng().UniformInt(uint64_t{0}, uint64_t{7}));
    // MutableData: the corrupt copy must not bleed into the shared broadcast
    // buffer other receivers (or duplicates) deliver from.
    frame.payload.MutableData()[byte] ^= static_cast<uint8_t>(1u << bit);
    ++counters_.corruptions;
  }

  if (profile_.duplicate_probability > 0.0 &&
      sim_.rng().Bernoulli(profile_.duplicate_probability)) {
    verdict.duplicates = 1;
    ++counters_.duplicates;
  }

  if (profile_.reorder_probability > 0.0 &&
      sim_.rng().Bernoulli(profile_.reorder_probability)) {
    const double extra_ns = sim_.rng().UniformDouble(
        0.0, static_cast<double>(profile_.reorder_extra_latency.nanos()));
    verdict.extra_latency = Duration::FromNanos(static_cast<int64_t>(extra_ns));
    ++counters_.reorders;
  }

  return verdict;
}

}  // namespace msn
