#include "src/mip/movement_detector.h"

#include "src/link/net_device.h"
#include "src/util/logging.h"

namespace msn {

MovementDetector::MovementDetector(MobileHost& mobile, Config config)
    : mobile_(mobile), config_(config) {
  task_ = std::make_unique<PeriodicTask>(mobile_.node().sim(), config_.probe_interval,
                                         [this] { ProbeRound(); });
}

MovementDetector::~MovementDetector() = default;

void MovementDetector::AddCandidate(const Candidate& candidate) {
  auto tracked = std::make_unique<Tracked>();
  tracked->candidate = candidate;
  tracked->pinger = std::make_unique<Pinger>(mobile_.node().stack());
  tracked_.push_back(std::move(tracked));
}

void MovementDetector::Start() {
  ProbeRound();
  task_->Start();
}

void MovementDetector::Stop() { task_->Stop(); }

double MovementDetector::LossEstimate(const std::string& device_name) const {
  for (const auto& t : tracked_) {
    if (t->candidate.attachment.device->name() == device_name) {
      return t->loss_ewma;
    }
  }
  return 1.0;
}

void MovementDetector::ReportLink(const NetDevice* device, double rssi_dbm, bool in_coverage) {
  for (auto& t : tracked_) {
    if (t->candidate.attachment.device != device) {
      continue;
    }
    t->rssi_dbm = rssi_dbm;
    t->have_rssi = true;
    if (config_.metrics != nullptr) {
      if (t->rssi_gauge == nullptr) {
        t->rssi_gauge = &config_.metrics->GetGauge("mh.movedet.rssi_dbm." + device->name());
      }
      t->rssi_gauge->Set(rssi_dbm);
    }
    // Association. The serving device changes only through a switch. The
    // policy is level-triggered on purpose: a cold switch elsewhere tears
    // the previous device down without the host ever leaving its cell, so an
    // in/out edge would never re-associate it.
    const MobileHost::Attachment& att = t->candidate.attachment;
    if (att.device == mobile_.attachment().device) {
      return;
    }
    IpStack& stack = mobile_.node().stack();
    if (in_coverage && att.device->state() == NetDevice::State::kDown) {
      // A device already bringing up belongs to a cold switch; forcing it up
      // would swallow that bring-up's completion.
      att.device->ForceUp();
      stack.ConfigureAddress(att.device, att.care_of, att.mask);
    } else if (!in_coverage && att.device->IsUp()) {
      stack.routes().RemoveForDevice(att.device);
      stack.UnconfigureAddress(att.device);
      att.device->TakeDown();
    }
    return;
  }
}

LinkCharacteristics MovementDetector::Characterize(const Tracked& t) const {
  LinkCharacteristics c;
  c.device_name = t.candidate.attachment.device->name();
  c.bandwidth_bps = t.candidate.attachment.device->bandwidth_bps();
  c.last_probe_rtt = t.last_rtt;
  c.loss_estimate = t.loss_ewma;
  return c;
}

void MovementDetector::ProbeRound() {
  for (auto& tracked : tracked_) {
    Tracked& t = *tracked;
    NetDevice* device = t.candidate.attachment.device;
    const auto addr = mobile_.node().stack().GetInterfaceAddress(device);
    if (!device->IsUp() || !addr.has_value()) {
      // Unprobeable link: decays toward dead.
      t.loss_ewma = (1.0 - kEwmaAlpha) * t.loss_ewma + kEwmaAlpha;
      ++t.rounds_dead;
      t.rounds_usable = 0;
      continue;
    }
    if (t.probe_outstanding) {
      continue;
    }
    t.probe_outstanding = true;
    ++counters_.probes_sent;
    // Probe the candidate's gateway with the candidate's own (local-role)
    // source address so the packet leaves through the candidate's device.
    t.pinger->set_source(*addr);
    Tracked* tp = &t;
    t.pinger->Ping(t.candidate.attachment.gateway, config_.probe_timeout,
                   [this, tp](const Pinger::Result& result) {
                     tp->probe_outstanding = false;
                     tp->loss_ewma = (1.0 - kEwmaAlpha) * tp->loss_ewma +
                                     kEwmaAlpha * (result.success ? 0.0 : 1.0);
                     if (result.success) {
                       tp->last_rtt = result.rtt;
                     }
                     if (IsUsable(*tp)) {
                       ++tp->rounds_usable;
                       tp->rounds_dead = 0;
                     } else {
                       ++tp->rounds_dead;
                       tp->rounds_usable = 0;
                     }
                     if (config_.metrics != nullptr) {
                       if (tp->loss_gauge == nullptr) {
                         const std::string& dev = tp->candidate.attachment.device->name();
                         tp->loss_gauge = &config_.metrics->GetGauge("mh.movedet.loss." + dev);
                         tp->rtt_gauge = &config_.metrics->GetGauge("mh.movedet.rtt_ms." + dev);
                       }
                       tp->loss_gauge->Set(tp->loss_ewma);
                       tp->rtt_gauge->Set(tp->last_rtt.ToMillisF());
                     }
                   });
  }
  Evaluate();
}

void MovementDetector::Evaluate() {
  // While a switch brings a device up there is nothing new to judge. Once
  // the host is registering, keep judging: a target that proves dead is left
  // without waiting out the whole registration schedule.
  if (tracked_.empty() || mobile_.switch_phase() == MobileHost::SwitchPhase::kBringingUp) {
    return;
  }
  // Which candidate are we currently using?
  Tracked* current = nullptr;
  for (auto& t : tracked_) {
    if (t->candidate.attachment.device == mobile_.attachment().device) {
      current = t.get();
      break;
    }
  }

  // Best settled-usable alternative.
  Tracked* best_usable = nullptr;
  for (auto& t : tracked_) {
    if (t.get() == current || t->rounds_usable < config_.hysteresis_rounds) {
      continue;
    }
    if (best_usable == nullptr ||
        t->candidate.preference > best_usable->candidate.preference) {
      best_usable = t.get();
    }
  }

  const bool current_dead =
      current == nullptr || current->rounds_dead >= config_.hysteresis_rounds;

  // Post-switch debounce; there is none before the first switch completes.
  const Time now = mobile_.node().sim().Now();
  if (attached_since_ != Time::Zero() && now < attached_since_ + config_.switch_cooldown) {
    if (current_dead) {
      ++counters_.suppressed_switches;
    }
    return;
  }

  // Registration-liveness recovery: a timed-out registration leaves the MH
  // detached, and the protocol never retries on its own (the attachment
  // stays usable in its local role). Once the current link has settled
  // usable again, re-attach through it.
  if (current != nullptr && mobile_.state() == MobileHost::State::kDetached &&
      current->rounds_usable >= config_.hysteresis_rounds) {
    ++counters_.reattaches;
    SwitchTo(*current, /*upgrade=*/false);
    return;
  }

  // Ping-pong guard: within min_residency of the last switch, only a
  // physically-down current device justifies moving again. A host parked at
  // a cell boundary (loss hovering at the usable threshold) otherwise
  // bounces between cells on every EWMA wiggle.
  const bool in_residency =
      config_.min_residency.nanos() > 0 && now < attached_since_ + config_.min_residency;
  const bool current_device_up =
      current != nullptr && current->candidate.attachment.device->IsUp();
  if (in_residency && current_device_up) {
    if (current_dead || (best_usable != nullptr &&
                         best_usable->candidate.preference > current->candidate.preference)) {
      ++counters_.pingpong_suppressed;
    }
    return;
  }

  if (current_dead) {
    if (best_usable != nullptr) {
      ++counters_.failovers;
      SwitchTo(*best_usable, /*upgrade=*/false);
    } else {
      // Blind failover: highest-preference alternative, even unprobeable
      // (a cold switch will bring its device up). Under the signal-aware
      // policy a link known to be out of coverage is not worth a blind cold
      // switch — the registration would only burn its full retransmit
      // schedule; staying put lets coverage come back to a live candidate.
      Tracked* fallback = nullptr;
      for (auto& t : tracked_) {
        if (t.get() == current) {
          continue;
        }
        if (t->have_rssi && t->rssi_dbm < kRssiFloorDbm) {
          continue;
        }
        if (fallback == nullptr ||
            t->candidate.preference > fallback->candidate.preference) {
          fallback = t.get();
        }
      }
      if (fallback != nullptr) {
        ++counters_.failovers;
        SwitchTo(*fallback, /*upgrade=*/false);
      }
    }
    return;
  }

  if (best_usable != nullptr && current != nullptr &&
      best_usable->candidate.preference > current->candidate.preference) {
    ++counters_.upgrades;
    SwitchTo(*best_usable, /*upgrade=*/true);
  }
}

void MovementDetector::SwitchTo(Tracked& target, bool upgrade) {
  ++counters_.switches;
  // The target must prove itself dead on its own probes, not on the rounds
  // that once made the host leave it.
  target.rounds_dead = 0;
  MSN_INFO("movedet", "%s: switching to %s (%s)", mobile_.node().name().c_str(),
           target.candidate.attachment.device->name().c_str(),
           upgrade ? "upgrade" : "failover");
  Tracked* tp = &target;
  auto done = [this, tp](bool ok) {
    if (mobile_.switch_phase() != MobileHost::SwitchPhase::kSettled) {
      return;  // Superseded by a newer attach, which reports for itself.
    }
    attached_since_ = mobile_.node().sim().Now();
    if (change_handler_) {
      change_handler_(Characterize(*tp), ok);
    }
  };
  if (target.candidate.attachment.device->IsUp()) {
    mobile_.HotSwitchTo(target.candidate.attachment, std::move(done));
  } else {
    mobile_.ColdSwitchTo(target.candidate.attachment, std::move(done));
  }
}

}  // namespace msn
