// Invariant oracles for fuzz runs (DESIGN.md §13).
//
// An OracleSuite watches one scenario execution — sampling live state on a
// periodic tick and auditing final state when the run ends — and records every
// invariant violation it can prove. The invariants are chosen so that a
// violation indicates a protocol bug, never an unlucky scenario: checks that
// faults or movement could legitimately trip are gated on windows the spec
// proves quiet, or on the run settling cleanly (all faults over, a final move
// with a long tail).
//
// Oracles:
//   ttl-loop            any IP stack counted a TTL-expired drop => a
//                       forwarding loop exists somewhere.
//   binding-table       the HA never holds more than one binding for the
//                       single mobile host, and its "ha.bindings" gauge
//                       agrees with the table.
//   binding-agreement   terminal MH registration state and the HA binding
//                       table tell the same story.
//   registration-liveness  a cleanly settling run ends in the state its last
//                       movement step promises (registered away / at home).
//   stale-tunnel        once home and deregistered, the HA stops tunneling.
//   probe-conservation  every probe is accounted for (echoed or lost), and
//                       none is lost during an interval that was provably
//                       quiet end to end.
//   tcp-delivery        the TCP-lite receiver saw exactly the bytes sent, in
//                       order, no duplicates; a settling run completes the
//                       transfer.
//   mpt-fallback        a triangle probe leaves the policy table in the
//                       correct verified state (kTriangle on success,
//                       kTunnelHome fallback on failure), and a transit
//                       filter always forces the fallback.
//   counter-consistency cross-component counter inequalities (decap <=
//                       tunneled, MH accepts <= HA accepts, ...).
//   coverage-continuity (mobility runs) while some cell offers clean
//                       coverage for a long continuous stretch, the MH must
//                       not stay unable to communicate: motion plus
//                       signal-driven handoff always finds a way back.
//   shard-consistency   the sharded binding table's internal invariants hold
//                       (every binding and queued request lives in the shard
//                       its home address hashes to), and each shard's
//                       exported bindings gauge tracks its table exactly.
//   fleet-convergence   (overload runs) every synthetic registration client
//                       reaches a terminal state, none gives up on a
//                       fault-free run, and none is terminally denied unless
//                       the scenario injected duplicate frames.
#ifndef MSN_SRC_CHECK_ORACLES_H_
#define MSN_SRC_CHECK_ORACLES_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/check/scenario_gen.h"
#include "src/check/traffic.h"
#include "src/fault/fault_injector.h"
#include "src/topo/testbed.h"

namespace msn {

class RegistrationLoadGenerator;

struct OracleReport {
  struct Violation {
    std::string detail;  // First occurrence, human-readable.
    uint64_t count = 0;
  };

  // Keyed by oracle name; std::map so ToString() is deterministically
  // ordered. Repeat violations of one oracle bump the count but keep the
  // first detail, so reports stay small and byte-stable.
  std::map<std::string, Violation> violations;
  uint64_t checks = 0;

  void Add(const std::string& oracle, const std::string& detail);
  [[nodiscard]] bool failed() const { return !violations.empty(); }
  [[nodiscard]] std::string ToString() const;
};

// True when the scenario guarantees convergence: every fault window is over
// at least one second before the final movement step, and the run continues
// at least ten seconds past it. Only then do the terminal-state oracles
// (registration-liveness, binding-agreement, tcp completion) apply.
[[nodiscard]] bool SettlesCleanly(const ScenarioSpec& spec);

class OracleSuite {
 public:
  // Tick interval the fuzzer drives OnTick() at; quiet-window margins below
  // assume it.
  static constexpr Duration kTickInterval = Milliseconds(500);

  struct Media {
    FaultInjector* home = nullptr;
    FaultInjector* wired = nullptr;
    FaultInjector* radio = nullptr;
  };

  OracleSuite(Testbed& testbed, const ScenarioSpec& spec, const TrafficHarness& traffic,
              Media media);

  OracleSuite(const OracleSuite&) = delete;
  OracleSuite& operator=(const OracleSuite&) = delete;

  // Mobility runs: attach the driver so the coverage-continuity oracle can
  // see per-cell link quality. Call before Begin().
  void AttachMobility(const MobilityDriver* driver) { mobility_ = driver; }

  // Overload runs: attach the registration fleet so the fleet-convergence
  // oracle can audit its terminal ledger. Call before Begin().
  void AttachFleet(const RegistrationLoadGenerator* fleet) { fleet_ = fleet; }

  // Marks the movement-script start time: spec event offsets are interpreted
  // relative to it. Call immediately before MovementScript::Run().
  void Begin();

  // Periodic live checks + quiet-interval bookkeeping.
  void OnTick();

  // Terminal checks; also exports "check.*" counters into the testbed
  // registry. Call once, after the simulation ran to spec.duration.
  void Finish();

  const OracleReport& report() const { return report_; }

 private:
  // A spec event window during which probe loss is explainable (movement or
  // fault activity, with margins).
  struct NoisyWindow {
    Duration from;
    Duration to;
  };

  // An exported gauge an oracle compares with a table, looked up by name once
  // when the suite is built. Null when nothing is exported under `name`.
  struct WatchedGauge {
    std::string name;
    const Gauge* gauge = nullptr;
  };
  struct AgentGauges {
    const HomeAgent* agent = nullptr;
    WatchedGauge bindings;                     // <prefix>bindings
    std::vector<WatchedGauge> shard_bindings;  // <prefix>shard.<i>.bindings
  };

  void CheckGauge(const char* oracle, const WatchedGauge& watched, size_t table_size,
                  const char* table);
  [[nodiscard]] bool QuietNow() const;
  [[nodiscard]] bool InNoisyWindow(Duration offset) const;
  void CloseQuietStretch(Time end);
  void CheckQuietProbeLoss();
  void ShardOracles();
  void FinalStateOracles();
  void TrafficOracles();
  void CounterOracles();
  void FleetOracles();

  Testbed& tb_;
  ScenarioSpec spec_;
  const TrafficHarness& traffic_;
  Media media_;
  OracleReport report_;

  bool settles_ = false;
  std::vector<NoisyWindow> noisy_;  // Sorted by `from`.
  Time start_;                      // Sim time of Begin().
  std::vector<AgentGauges> agents_;  // Primary, then backup if present.

  // Quiet-interval tracking for the probe-conservation oracle.
  std::optional<Time> quiet_since_;
  std::vector<std::pair<Time, Time>> quiet_stretches_;

  // Stale-tunnel oracle: HA tunneled-packet count sampled once the settled
  // at-home state is reached.
  std::optional<uint64_t> stale_tunnel_marker_;

  // coverage-continuity (mobility runs): consecutive ticks with some cell in
  // deep coverage, and consecutive ticks with the MH unable to communicate.
  // Long streaks of both at once mean the signal-driven handoff loop broke.
  const MobilityDriver* mobility_ = nullptr;
  int covered_ticks_ = 0;
  int disconnected_ticks_ = 0;

  // fleet-convergence (overload runs): the synthetic registration fleet.
  const RegistrationLoadGenerator* fleet_ = nullptr;
};

}  // namespace msn

#endif  // MSN_SRC_CHECK_ORACLES_H_
