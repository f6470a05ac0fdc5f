// Deterministic fault injection for a BroadcastMedium.
//
// A FaultInjector installs itself as the medium's fault hook and applies a
// composable set of fault models to every frame delivery: Gilbert-Elliott
// burst loss, frame duplication, reordering (extra queued latency), bit
// corruption (caught downstream by the IP/UDP checksums), and timed link
// blackouts. All randomness flows from the simulator's seeded Rng, so a chaos
// run with the same seed produces the same event trace bit-for-bit.
//
// Injectors are usually driven by a FaultSchedule (fault_schedule.h) rather
// than poked directly, so a scenario reads as a declarative list of timed
// fault events.
#ifndef MSN_SRC_FAULT_FAULT_INJECTOR_H_
#define MSN_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>

#include "src/link/medium.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"

namespace msn {

// Two-state Markov loss model: the channel alternates between a good state
// (low loss) and a bad/burst state (high loss). State transitions are drawn
// once per frame delivery, which on a busy medium approximates the
// continuous-time chain well enough for protocol testing.
struct GilbertElliottParams {
  double p_enter_burst = 0.05;  // P(good -> bad) per frame.
  double p_exit_burst = 0.25;   // P(bad -> good) per frame.
  double loss_good = 0.0;       // Loss probability while in the good state.
  double loss_bad = 1.0;        // Loss probability while in the burst state.
};

// Which fault models are active and how aggressive they are. All
// probabilities are per (frame, receiver) delivery.
struct FaultProfile {
  std::optional<GilbertElliottParams> burst_loss;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  // A reordered frame is delayed by uniform [0, reorder_extra_latency] on top
  // of the medium's own latency draw, letting later frames overtake it.
  Duration reorder_extra_latency = Milliseconds(200);
  double corrupt_probability = 0.0;
};

class FaultInjector {
 public:
  // With a registry, injected-event accounting is named
  // "fault.<medium>.*" there; counters() counts either way.
  FaultInjector(Simulator& sim, BroadcastMedium& medium, MetricsRegistry* metrics = nullptr);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void SetProfile(const FaultProfile& profile) { profile_ = profile; }
  void ClearProfile() { profile_ = FaultProfile{}; }
  const FaultProfile& profile() const { return profile_; }

  // Blackout: every frame on the medium is dropped until EndBlackout(). Models
  // a radio shadow or an unplugged segment; unlike Detach, devices keep their
  // addresses and routes, so recovery exercises the retransmission paths.
  void StartBlackout();
  void EndBlackout();
  // Convenience: StartBlackout now, EndBlackout after `length`. Calling again
  // before the previous window ends extends it (generation-guarded).
  void BlackoutFor(Duration length);

  bool blackout_active() const { return blackout_active_; }
  bool in_burst() const { return in_burst_; }
  const std::string& medium_name() const { return medium_.name(); }

  // The injector's accounting, named "fault.<medium>.<field>".
  struct Counters {
    uint64_t frames_seen = 0;
    uint64_t burst_drops = 0;
    uint64_t blackout_drops = 0;
    uint64_t duplicates = 0;
    uint64_t reorders = 0;
    uint64_t corruptions = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  [[nodiscard]] FaultVerdict OnFrame(LinkDevice* target, EthernetFrame& frame);

  Simulator& sim_;
  BroadcastMedium& medium_;
  FaultProfile profile_;
  bool in_burst_ = false;
  bool blackout_active_ = false;
  uint64_t blackout_generation_ = 0;
  MetricsRegistry* metrics_;  // Null: counters are not named.
  Counters counters_;
};

}  // namespace msn

#endif  // MSN_SRC_FAULT_FAULT_INJECTOR_H_
