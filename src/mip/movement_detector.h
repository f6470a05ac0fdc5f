// Movement detection and automatic interface selection — the paper's §6
// future work ("we plan to experiment with techniques for determining when
// to switch between networks") made concrete.
//
// The detector monitors the reachability of each candidate attachment's
// gateway with periodic pings and keeps an exponentially weighted loss
// estimate per link. Policy:
//
//   * every candidate has a static preference (wired beats wireless);
//   * the detector switches to the best *usable* candidate — hot switch if
//     the target device is already up, cold switch otherwise;
//   * hysteresis: a link must stay good (or bad) for several consecutive
//     probes before triggering a switch, so a single dropped radio frame
//     does not bounce the host between networks.
//
// Given a link feed (ReportLink) that says where the host is, the detector
// also owns association: a covered candidate device that is down is powered
// at no bring-up cost and given its care-of address, so a switch onto it is
// hot; an up one out of coverage is deconfigured and taken down. The device
// serving the host is never touched (DESIGN.md §15).
//
// It also exposes the paper's other §6 idea: upper layers can subscribe to
// attachment changes and learn the new link's characteristics (bandwidth,
// probe RTT) to adapt their behaviour.
#ifndef MSN_SRC_MIP_MOVEMENT_DETECTOR_H_
#define MSN_SRC_MIP_MOVEMENT_DETECTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/mip/mobile_host.h"
#include "src/node/icmp.h"
#include "src/telemetry/metrics.h"

namespace msn {

// What upper layers learn when connectivity changes (paper §6: "Bandwidth,
// latency, bit error rates ... can all differ significantly from one type
// of network to another").
struct LinkCharacteristics {
  std::string device_name;
  uint64_t bandwidth_bps = 0;
  Duration last_probe_rtt;
  double loss_estimate = 0.0;  // EWMA in [0, 1].
};

class MovementDetector {
 public:
  struct Candidate {
    MobileHost::Attachment attachment;
    // Higher wins among usable candidates (e.g. wired 10, radio 1).
    int preference = 0;
  };

  struct Config {
    Duration probe_interval = Milliseconds(500);
    Duration probe_timeout = Milliseconds(400);
    // Consecutive probe rounds a change must persist before switching.
    int hysteresis_rounds = 3;
    // Debounce: after any switch completes, suppress further switches for
    // this long. A short link blackout then rides out on retransmission
    // instead of triggering a spurious (and expensive) cold switch.
    Duration switch_cooldown = Seconds(2);
    // Ping-pong guard: once attached, stay on the cell at least this long
    // before any *voluntary* switch (upgrade, or failover while the current
    // device is still physically up). A host parked exactly at the
    // usable-threshold boundary otherwise oscillates between two cells on
    // every EWMA wiggle. Zero disables the guard. Blind failover off a
    // device that is actually down is always exempt.
    Duration min_residency;
    // Optional: per-link loss/RTT/RSSI gauges under "mh.movedet.*".
    // Each is looked up by name on its first update, then set through the
    // kept reference.
    MetricsRegistry* metrics = nullptr;
  };

  // EWMA weight of the newest probe result.
  static constexpr double kEwmaAlpha = 0.3;
  // A link is usable below this loss estimate, dead above.
  static constexpr double kUsableThreshold = 0.4;
  // Signal-aware policy, on for any link with a ReportLink feed: a link
  // whose last reported RSSI is below this counts as unusable even while its
  // probes still succeed, so the detector hands off *before* walking out of
  // coverage.
  static constexpr double kRssiFloorDbm = -85.0;

  using AttachmentChangeHandler =
      std::function<void(const LinkCharacteristics& now_using, bool registered)>;

  MovementDetector(MobileHost& mobile, Config config);
  ~MovementDetector();

  MovementDetector(const MovementDetector&) = delete;
  MovementDetector& operator=(const MovementDetector&) = delete;

  void AddCandidate(const Candidate& candidate);
  void Start();
  void Stop();

  // Upper-layer notification hook (paper §6).
  void SetAttachmentChangeHandler(AttachmentChangeHandler handler) {
    change_handler_ = std::move(handler);
  }

  // Loss estimate for a candidate's device, by name. Returns 1.0 if unknown.
  double LossEstimate(const std::string& device_name) const;

  // Link feed (typically from the mobility driver): a candidate device's
  // latest RSSI and whether the host is in its cell; applies the association
  // policy above. Devices that are not candidates are ignored.
  void ReportLink(const NetDevice* device, double rssi_dbm, bool in_coverage);

  struct Counters {
    uint64_t probes_sent = 0;
    uint64_t switches = 0;
    uint64_t upgrades = 0;
    uint64_t failovers = 0;
    // Switches vetoed by the post-switch cooldown window.
    uint64_t suppressed_switches = 0;
    // Voluntary switches vetoed by the min_residency ping-pong guard.
    uint64_t pingpong_suppressed = 0;
    // Re-attachments through the current link after a registration timeout
    // left the MH detached (the protocol itself never retries).
    uint64_t reattaches = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  struct Tracked {
    Candidate candidate;
    std::unique_ptr<Pinger> pinger;
    double loss_ewma = 1.0;  // Pessimistic until proven reachable.
    Duration last_rtt;
    int rounds_usable = 0;
    int rounds_dead = 0;
    bool probe_outstanding = false;
    double rssi_dbm = 0.0;
    bool have_rssi = false;
    // mh.movedet.* gauges, looked up on first use.
    Gauge* rssi_gauge = nullptr;
    Gauge* loss_gauge = nullptr;
    Gauge* rtt_gauge = nullptr;
  };

  void ProbeRound();
  void Evaluate();
  void SwitchTo(Tracked& target, bool upgrade);
  bool IsUsable(const Tracked& t) const {
    if (t.have_rssi && t.rssi_dbm < kRssiFloorDbm) {
      return false;  // Fading signal marks the link unusable pre-emptively.
    }
    return t.loss_ewma < kUsableThreshold;
  }
  LinkCharacteristics Characterize(const Tracked& t) const;

  MobileHost& mobile_;
  Config config_;
  std::vector<std::unique_ptr<Tracked>> tracked_;
  std::unique_ptr<PeriodicTask> task_;
  AttachmentChangeHandler change_handler_;
  Counters counters_;
  // When the last switch completed (zero before the first); anchors the
  // switch_cooldown and min_residency guards.
  Time attached_since_;
};

}  // namespace msn

#endif  // MSN_SRC_MIP_MOVEMENT_DETECTOR_H_
