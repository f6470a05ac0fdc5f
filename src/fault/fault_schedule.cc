#include "src/fault/fault_schedule.h"

#include <utility>

#include "src/mip/home_agent.h"
#include "src/util/logging.h"

namespace msn {

FaultSchedule& FaultSchedule::At(Duration at, std::string description,
                                 std::function<void()> fn) {
  events_.push_back(Event{at, std::move(description), std::move(fn)});
  return *this;
}

FaultSchedule& FaultSchedule::Blackout(Duration at, FaultInjector& injector, Duration length) {
  return At(at, "blackout " + injector.medium_name() + " for " + length.ToString(),
            [&injector, length] { injector.BlackoutFor(length); });
}

FaultSchedule& FaultSchedule::Profile(Duration at, FaultInjector& injector,
                                      const FaultProfile& profile) {
  return At(at, "profile " + injector.medium_name(),
            [&injector, profile] { injector.SetProfile(profile); });
}

FaultSchedule& FaultSchedule::ClearProfile(Duration at, FaultInjector& injector) {
  return At(at, "clear-profile " + injector.medium_name(),
            [&injector] { injector.ClearProfile(); });
}

FaultSchedule& FaultSchedule::HaOutage(Duration at, HomeAgent& ha, Duration length,
                                       HaOutageKind kind) {
  const char* label = kind == HaOutageKind::kFailStop       ? " (fail-stop)"
                      : kind == HaOutageKind::kDaemonRestart ? " (daemon restart)"
                                                             : "";
  At(at, std::string("ha-outage begin") + label, [&ha, kind] { ha.BeginOutage(kind); });
  At(at + length, "ha-outage end", [&ha] { ha.EndOutage(); });
  return *this;
}

FaultSchedule& FaultSchedule::HaCrash(Duration at, HomeAgent& ha, Duration rejoin_after) {
  At(at, "ha-crash (fail-stop)", [&ha] { ha.BeginOutage(HaOutageKind::kFailStop); });
  if (rejoin_after.nanos() > 0) {
    At(at + rejoin_after, "ha-crash rejoin", [&ha] { ha.EndOutage(); });
  }
  return *this;
}

void FaultSchedule::Arm(Simulator& sim) {
  for (Event& event : events_) {
    // The event list outlives the armed callbacks (the schedule must outlive
    // the run), so capturing `this` and the moved-in pieces is safe.
    std::string description = event.description;
    std::function<void()> fn = std::move(event.fn);
    sim.Schedule(event.at, [this, &sim, description = std::move(description),
                            fn = std::move(fn)] {
      MSN_DEBUG("fault", "%s: %s", sim.Now().ToString().c_str(), description.c_str());
      log_.push_back(AppliedEvent{sim.Now(), description});
      fn();
    });
  }
  events_.clear();
}

std::string FaultSchedule::Trace() const {
  std::string out;
  for (const AppliedEvent& event : log_) {
    out += event.at.ToString();
    out += ' ';
    out += event.description;
    out += '\n';
  }
  return out;
}

}  // namespace msn
