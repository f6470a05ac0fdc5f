#include "src/mobility/mobility_driver.h"

#include <utility>

namespace msn {
namespace {

constexpr double kClearLossEpsilon = 1e-9;

}  // namespace

MobilityDriver::MobilityDriver(MobileHost& mobile, MovementDetector& detector, CampusMap map,
                               std::unique_ptr<MobilityModel> model, Config config)
    : mobile_(mobile),
      detector_(detector),
      map_(std::move(map)),
      model_(std::move(model)),
      config_(config) {
  if (config_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    config_.metrics = owned_metrics_.get();
  }
  residency_.resize(map_.base_stations().size());
}

MobilityDriver::~MobilityDriver() {
  Stop();
  config_.metrics->ReleaseCounters(counters_);
}

void MobilityDriver::AddBinding(const MediumBinding& binding) {
  Bound b;
  b.binding = binding;
  b.base_params = binding.medium->params();
  bound_.push_back(b);
}

void MobilityDriver::Start() {
  if (task_ == nullptr) {
    task_ = std::make_unique<PeriodicTask>(mobile_.node().sim(), kTick, [this] { Tick(); });
  }
  if (task_->running()) {
    return;
  }
  last_device_ = mobile_.attachment().device;
  Tick();           // Apply quality for the starting position right away.
  task_->Start();   // ...then keep ticking every kTick.
}

void MobilityDriver::Stop() {
  if (task_ == nullptr || !task_->running()) {
    return;
  }
  task_->Stop();
  // Leave the media the way we found them.
  for (Bound& b : bound_) {
    b.binding.injector->ClearProfile();
    b.binding.medium->set_params(b.base_params);
  }
}

bool MobilityDriver::AnyDeepCoverage(double loss_threshold) const {
  for (const Bound& b : bound_) {
    if (b.state.in_coverage && b.state.loss <= loss_threshold) {
      return true;
    }
  }
  return false;
}

void MobilityDriver::Tick() {
  const Vec2 pos = map_.Clamp(model_->Advance(kTick));
  MetricsRegistry& metrics = *config_.metrics;
  if (++counters_.ticks == 1) {
    metrics.BindCounter("mobility.ticks", &counters_.ticks);
    pos_x_ = &metrics.GetGauge("mobility.pos_x_m");
    pos_y_ = &metrics.GetGauge("mobility.pos_y_m");
  }
  pos_x_->Set(pos.x);
  pos_y_->Set(pos.y);

  for (Bound& b : bound_) {
    UpdateQuality(b);
  }
  NoteHandoffs();

  // Cell residency: one tick attributed to the serving device's nearest cell.
  for (const Bound& b : bound_) {
    if (b.binding.device == mobile_.attachment().device &&
        b.state.station != nullptr) {
      Counter*& residency =
          residency_[static_cast<size_t>(b.state.station - map_.base_stations().data())];
      if (residency == nullptr) {
        residency = &metrics.GetCounter("mobility.residency." + b.state.station->name);
      }
      residency->Add(1);
      break;
    }
  }
}

void MobilityDriver::UpdateQuality(Bound& b) {
  const Vec2 pos = model_->position();
  double distance_m = 0.0;
  const BaseStation* station = map_.Nearest(b.binding.cell_medium, pos, &distance_m);
  b.state.station = station;
  if (station == nullptr) {
    b.state.distance_m = 0.0;
    b.state.rssi_dbm = -200.0;
    b.state.loss = 1.0;
    b.state.in_coverage = false;
  } else {
    b.state.distance_m = distance_m;
    b.state.rssi_dbm = RssiDbm(b.binding.quality, distance_m);
    b.state.loss = LossAtDistance(b.binding.quality, distance_m);
    b.state.in_coverage = distance_m < b.binding.quality.range_m;
  }

  // Loss -> fault injector, as a degenerate (burst-free) Gilbert-Elliott
  // profile so distance shares the one FaultHook slot with scripted faults.
  if (b.state.loss <= kClearLossEpsilon) {
    b.binding.injector->ClearProfile();
  } else {
    GilbertElliottParams ge;
    ge.p_enter_burst = 0.0;
    ge.p_exit_burst = 1.0;
    ge.loss_good = b.state.loss;
    ge.loss_bad = b.state.loss;
    FaultProfile profile;
    profile.burst_loss = ge;
    b.binding.injector->SetProfile(profile);
  }

  // Range -> extra propagation latency on the medium.
  MediumParams params = b.base_params;
  params.latency = params.latency + LatencyAtDistance(b.binding.quality, b.state.distance_m);
  b.binding.medium->set_params(params);

  if (b.loss_gauge == nullptr) {
    const std::string cell_name = CellMediumName(b.binding.cell_medium);
    b.loss_gauge = &config_.metrics->GetGauge("mobility.loss." + cell_name);
    b.rssi_gauge = &config_.metrics->GetGauge("mobility.rssi_dbm." + cell_name);
  }
  b.loss_gauge->Set(b.state.loss);
  b.rssi_gauge->Set(b.state.rssi_dbm);

  detector_.ReportLink(b.binding.device, b.state.rssi_dbm, b.state.in_coverage);
}

void MobilityDriver::NoteHandoffs() {
  NetDevice* current = mobile_.attachment().device;
  if (current == last_device_) {
    return;
  }
  // Classify by the state of the medium we left: still usable -> the switch
  // was signal-driven; out of coverage -> motion forced it.
  bool previous_was_covered = false;
  for (const Bound& b : bound_) {
    if (b.binding.device == last_device_) {
      previous_was_covered = b.state.in_coverage;
      break;
    }
  }
  if (previous_was_covered) {
    if (++counters_.handoffs_signal == 1) {
      config_.metrics->BindCounter("mobility.handoffs_signal", &counters_.handoffs_signal);
    }
  } else if (++counters_.handoffs_coverage == 1) {
    config_.metrics->BindCounter("mobility.handoffs_coverage", &counters_.handoffs_coverage);
  }
  last_device_ = current;
}

}  // namespace msn
