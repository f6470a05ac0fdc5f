// Declarative, reproducible chaos scripts.
//
// A FaultSchedule is a list of timed fault events — blackouts, loss-profile
// changes, home-agent outages, or arbitrary callbacks — built up fluently and
// then armed against a simulator. Offsets are relative to the arm time, so
// the same schedule object can drive scenario runs that start at different
// sim times. Each event records a human-readable line when it fires; the
// resulting Trace() is stable for a given seed, which is what the chaos tests
// assert to prove determinism.
#ifndef MSN_SRC_FAULT_FAULT_SCHEDULE_H_
#define MSN_SRC_FAULT_FAULT_SCHEDULE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/sim/simulator.h"

namespace msn {

class HomeAgent;
enum class HaOutageKind;

class FaultSchedule {
 public:
  FaultSchedule() = default;

  FaultSchedule(const FaultSchedule&) = delete;
  FaultSchedule& operator=(const FaultSchedule&) = delete;

  // Arbitrary event at `at` after arm time. The description lands in the
  // trace when the event fires.
  FaultSchedule& At(Duration at, std::string description, std::function<void()> fn);

  // Link blackout on `injector`'s medium for `length`.
  FaultSchedule& Blackout(Duration at, FaultInjector& injector, Duration length);

  // Swap in a fault profile (burst loss, duplication, ...) at `at`.
  FaultSchedule& Profile(Duration at, FaultInjector& injector, const FaultProfile& profile);
  FaultSchedule& ClearProfile(Duration at, FaultInjector& injector);

  // Home-agent outage window: UDP 434 requests are silently dropped from `at`
  // until `at + length`. `kind` says what else the outage does (a daemon
  // restart also wipes the binding table and identification history, and the
  // recovering HA then forces each mobile host to resynchronize) — see
  // HaOutageKind in src/mip/home_agent.h.
  FaultSchedule& HaOutage(Duration at, HomeAgent& ha, Duration length, HaOutageKind kind);

  // Fail-stop crash of the whole agent: nothing is served, arriving packets
  // are dropped with reason accounting, and RAM dies with the host. With a
  // positive `rejoin_after` the agent comes back that much later (wiped, and
  // demoting itself to standby when replicated); the default never rejoins.
  FaultSchedule& HaCrash(Duration at, HomeAgent& ha, Duration rejoin_after = Duration());

  // Schedules every event relative to sim.Now(). May be called once per run.
  void Arm(Simulator& sim);

  struct AppliedEvent {
    Time at;
    std::string description;
  };
  const std::vector<AppliedEvent>& log() const { return log_; }
  // One line per fired event ("3.000s blackout radio134 for 1.5s\n"...);
  // identical across same-seed runs.
  std::string Trace() const;

  size_t pending_events() const { return events_.size(); }

 private:
  struct Event {
    Duration at;
    std::string description;
    std::function<void()> fn;
  };

  std::vector<Event> events_;
  std::vector<AppliedEvent> log_;
};

}  // namespace msn

#endif  // MSN_SRC_FAULT_FAULT_SCHEDULE_H_
