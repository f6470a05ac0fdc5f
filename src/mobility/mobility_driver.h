// Drives physical mobility into the link layer and the movement detector
// (DESIGN.md §15).
//
// Each tick the driver advances the host's mobility model, finds the nearest
// base station per bound medium, and turns distance into link quality:
//
//   * loss  -> the medium's FaultInjector, as a degenerate Gilbert-Elliott
//     profile (no burst state, loss_good = loss_bad = f(distance));
//   * latency -> the medium's base propagation latency plus an edge penalty;
//   * RSSI and coverage -> MovementDetector::ReportLink, so the detector's
//     signal-aware policy sees fading before the loss EWMA catches up, and
//     its association policy powers the devices of the cells the host is in.
//
// The driver never changes a device's state itself. Handoffs are classified
// by what forced them: a switch off a medium that was still in coverage is
// "signal" (quality-driven), off a dead one is "coverage" (forced).
//
// Telemetry (all under "mobility.*"): position gauges, per-medium
// loss/RSSI gauges, per-cell residency tick counters, and the tick and
// handoff cause counters of Counters. Each is named on its first use and
// recorded through the kept reference (or the bound field) after that, so
// it appears in the registry when it first has a value.
#ifndef MSN_SRC_MOBILITY_MOBILITY_DRIVER_H_
#define MSN_SRC_MOBILITY_MOBILITY_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/mip/movement_detector.h"
#include "src/mobility/campus_map.h"
#include "src/mobility/link_quality.h"
#include "src/mobility/mobility_model.h"

namespace msn {

class MobilityDriver {
 public:
  // One testbed medium the roaming host can attach through.
  struct MediumBinding {
    CellMedium cell_medium = CellMedium::kRadio;  // Which base stations apply.
    BroadcastMedium* medium = nullptr;
    FaultInjector* injector = nullptr;  // Distance-derived loss goes here.
    NetDevice* device = nullptr;        // The host's device on this medium.
    RadioParams quality;                // Distance -> loss/RSSI/latency mapping.
  };

  // Live per-binding quality snapshot, recomputed every tick.
  struct MediumState {
    const BaseStation* station = nullptr;  // Nearest cell; null if none placed.
    double distance_m = 0.0;
    double rssi_dbm = -200.0;
    double loss = 1.0;
    bool in_coverage = false;
  };

  struct Config {
    MetricsRegistry* metrics = nullptr;
  };

  static constexpr Duration kTick = Milliseconds(250);

  // "mobility.ticks", "mobility.handoffs_signal", "mobility.handoffs_coverage".
  struct Counters {
    uint64_t ticks = 0;
    // Device changes observed on the mobile host, by cause: the previous
    // medium was still in coverage (quality-driven) vs. already dead.
    uint64_t handoffs_signal = 0;
    uint64_t handoffs_coverage = 0;
  };

  // `detector` receives every binding's RSSI and coverage each tick.
  MobilityDriver(MobileHost& mobile, MovementDetector& detector, CampusMap map,
                 std::unique_ptr<MobilityModel> model, Config config);
  ~MobilityDriver();

  MobilityDriver(const MobilityDriver&) = delete;
  MobilityDriver& operator=(const MobilityDriver&) = delete;

  void AddBinding(const MediumBinding& binding);

  // Applies quality once immediately, then every kTick.
  void Start();
  void Stop();

  Vec2 position() const { return model_->position(); }
  const CampusMap& map() const { return map_; }
  const MobilityModel& model() const { return *model_; }
  const Counters& counters() const { return counters_; }

  // True when some bound medium currently has loss <= threshold — the
  // coverage-continuity oracle's premise that connectivity was available.
  [[nodiscard]] bool AnyDeepCoverage(double loss_threshold) const;

 private:
  struct Bound {
    MediumBinding binding;
    MediumParams base_params;  // Medium params before the driver touched them.
    MediumState state;
    Gauge* loss_gauge = nullptr;  // mobility.loss.<cell>
    Gauge* rssi_gauge = nullptr;  // mobility.rssi_dbm.<cell>
  };

  void Tick();
  void UpdateQuality(Bound& b);
  void NoteHandoffs();

  MobileHost& mobile_;
  MovementDetector& detector_;
  CampusMap map_;
  std::unique_ptr<MobilityModel> model_;
  Config config_;
  std::vector<Bound> bound_;
  std::unique_ptr<PeriodicTask> task_;
  Counters counters_;
  NetDevice* last_device_ = nullptr;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // Fallback when unbound.
  Gauge* pos_x_ = nullptr;
  Gauge* pos_y_ = nullptr;
  std::vector<Counter*> residency_;  // Indexed like map_.base_stations().
};

}  // namespace msn

#endif  // MSN_SRC_MOBILITY_MOBILITY_DRIVER_H_
