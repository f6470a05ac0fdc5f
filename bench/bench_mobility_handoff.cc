// Mobility handoff benchmark: handoff rate, handoff latency, and in-flight
// probe loss as a function of walking speed and cell density (paper §6 —
// switching between networks as the host physically roams).
//
// Each run boots the testbed with the mobile host registered on the wired
// foreign subnet, then lets a random-waypoint walk roam a corridor campus of
// alternating wired drop zones and radio cells. The mobility driver turns
// distance into per-medium loss/latency/RSSI; the signal-aware movement
// detector decides every handoff — nothing is scripted. The correspondent
// (outside the campus) streams sequenced UDP probes at the home address for
// the whole run, so handoff cost shows up as probe loss.
//
// Output: a human-readable table over the speed x density sweep plus the
// unified BENCH_mobility_handoff.json report (one row per cell). Exits
// non-zero if the walks never hand off, if delivery collapses outright, or
// if the report cannot be written.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/mip/movement_detector.h"
#include "src/mobility/mobility_driver.h"
#include "src/node/udp.h"
#include "src/telemetry/export.h"
#include "src/topo/testbed.h"
#include "src/util/assert.h"
#include "src/util/stats.h"

namespace msn {
namespace {

constexpr Duration kHorizon = Seconds(60);
constexpr Duration kProbeInterval = Milliseconds(50);
constexpr double kMapWidthM = 1200.0;
constexpr double kMapHeightM = 240.0;
constexpr double kWiredRangeM = 60.0;
constexpr double kRadioRangeM = 120.0;

const double kSpeedsMps[] = {2.0, 8.0, 18.0};
const int kCellCounts[] = {3, 6};

struct Cell {
  double speed_mps = 0.0;
  int cells = 0;
  int runs = 0;
  int registered_runs = 0;  // Runs ending with a live binding.
  uint64_t handoffs_signal = 0;
  uint64_t handoffs_coverage = 0;
  RunningStats handoff_ms;  // Per-run mean successful-attach latency.
  RunningStats loss_fraction;
  std::vector<double> loss_samples;
  uint64_t probes_sent = 0;
  uint64_t probes_received = 0;
};

void RunCell(Cell& cell, uint64_t seed, BenchReport* report) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.realistic_delays = false;
  cfg.external_ch = true;  // CH traffic must not ride the campus cells.
  Testbed tb(cfg);
  FaultInjector inject_wired(tb.sim, *tb.net8, &tb.metrics);
  FaultInjector inject_radio(tb.sim, *tb.radio134, &tb.metrics);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);

  CampusMap map =
      CampusMap::Corridor(kMapWidthM, kMapHeightM, cell.cells, kWiredRangeM, kRadioRangeM);
  const Vec2 start = map.base_stations().front().position;
  RandomWaypointModel::Params wp;
  wp.min_speed_mps = cell.speed_mps;
  wp.max_speed_mps = cell.speed_mps;  // Constant speed: the sweep variable.
  wp.max_pause = Seconds(1);
  auto model = std::make_unique<RandomWaypointModel>(Vec2{kMapWidthM, kMapHeightM}, start, wp,
                                                     Rng(seed).Fork("walk"));

  MovementDetector::Config det_cfg;
  det_cfg.min_residency = Seconds(3);
  det_cfg.metrics = &tb.metrics;
  MovementDetector detector(*tb.mobile, det_cfg);
  detector.AddCandidate({tb.WiredAttachment(50), /*preference=*/2});
  detector.AddCandidate({tb.WirelessAttachment(50), /*preference=*/1});

  MobilityDriver::Config drv_cfg;
  drv_cfg.metrics = &tb.metrics;
  MobilityDriver driver(*tb.mobile, detector, std::move(map), std::move(model), drv_cfg);
  driver.AddBinding(tb.WiredMobilityBinding(&inject_wired));
  driver.AddBinding(tb.RadioMobilityBinding(&inject_radio));
  driver.Start();
  detector.Start();

  uint64_t received = 0;
  UdpSocket sink(tb.mh->stack());
  MSN_CHECK(sink.Bind(6001));
  sink.SetReceiveHandler([&](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
    (void)data;
    (void)meta;
    ++received;
  });
  uint64_t sent = 0;
  UdpSocket source(tb.ch->stack());
  MSN_CHECK(source.Bind(6000));
  PeriodicTask probes(tb.sim, kProbeInterval, [&] {
    ++sent;
    source.SendTo(Testbed::HomeAddress(), 6001, std::vector<uint8_t>{0xca, 0xfe});
  });
  probes.Start();

  tb.RunFor(kHorizon);
  if (report != nullptr) {
    report->AddMetrics(tb.metrics);
  }

  ++cell.runs;
  if (tb.mobile->registered() || tb.mobile->at_home()) {
    ++cell.registered_runs;
  }
  cell.handoffs_signal += driver.counters().handoffs_signal;
  cell.handoffs_coverage += driver.counters().handoffs_coverage;
  if (const Histogram* h = tb.metrics.FindHistogram("mh.handoff_ms");
      h != nullptr && h->count() > 0) {
    cell.handoff_ms.Add(h->mean());
  }
  const double loss =
      sent == 0 ? 0.0 : 1.0 - static_cast<double>(received) / static_cast<double>(sent);
  cell.loss_fraction.Add(loss);
  cell.loss_samples.push_back(loss);
  cell.probes_sent += sent;
  cell.probes_received += received;
}

int Main() {
  const int kRunsPerCell = BenchIterations(5, 2);

  BenchReport report("mobility_handoff",
                     "Handoff rate, latency, and probe loss over a speed x cell-density sweep");
  report.set_seed(7000);
  report.AddParam("runs_per_cell", kRunsPerCell);
  report.AddParam("horizon_ms", kHorizon.millis());
  report.AddParam("probe_interval_ms", kProbeInterval.millis());
  report.AddParam("map_width_m", kMapWidthM);
  report.AddParam("map_height_m", kMapHeightM);

  std::vector<Cell> cells;
  for (const double speed : kSpeedsMps) {
    for (const int count : kCellCounts) {
      Cell cell;
      cell.speed_mps = speed;
      cell.cells = count;
      cells.push_back(cell);
    }
  }
  bool metrics_captured = false;
  uint64_t seed = 7000;
  for (Cell& cell : cells) {
    for (int run = 0; run < kRunsPerCell; ++run) {
      const bool capture = !metrics_captured;
      metrics_captured = true;
      RunCell(cell, seed++, capture ? &report : nullptr);
    }
  }

  std::printf("=======================================================================\n");
  std::printf("Mobility handoff: random-waypoint walk over a %.0fx%.0f m corridor,\n", kMapWidthM,
              kMapHeightM);
  std::printf("CH probes the home address every %lld ms for %lld ms; %d runs/cell\n",
              static_cast<long long>(kProbeInterval.millis()),
              static_cast<long long>(kHorizon.millis()), kRunsPerCell);
  std::printf("=======================================================================\n\n");
  std::printf("speed  cells  handoffs(sig/cov)  handoff ms mean       loss mean  reg\n");
  std::printf("-----  -----  -----------------  -------------------  ----------  ---\n");
  uint64_t total_handoffs = 0;
  uint64_t total_sent = 0;
  uint64_t total_received = 0;
  for (Cell& cell : cells) {
    const uint64_t handoffs = cell.handoffs_signal + cell.handoffs_coverage;
    total_handoffs += handoffs;
    total_sent += cell.probes_sent;
    total_received += cell.probes_received;
    std::printf("%5.1f  %5d  %8llu /%7llu  %-19s  %10.3f  %d/%d\n", cell.speed_mps, cell.cells,
                static_cast<unsigned long long>(cell.handoffs_signal),
                static_cast<unsigned long long>(cell.handoffs_coverage),
                cell.handoff_ms.Summary(1).c_str(), cell.loss_fraction.mean(),
                cell.registered_runs, cell.runs);
    char label[48];
    std::snprintf(label, sizeof(label), "speed%.0f_cells%d", cell.speed_mps, cell.cells);
    report.AddRow(label, {{"speed_mps", cell.speed_mps},
                          {"cells", cell.cells},
                          {"runs", cell.runs},
                          {"registered_runs", cell.registered_runs},
                          {"handoffs_signal", cell.handoffs_signal},
                          {"handoffs_coverage", cell.handoffs_coverage},
                          {"handoff_ms_mean", cell.handoff_ms.mean()},
                          {"loss_fraction_mean", cell.loss_fraction.mean()},
                          {"probes_sent", cell.probes_sent},
                          {"probes_received", cell.probes_received}});
    report.AddSummary(label, "loss_fraction", cell.loss_samples);
  }

  std::printf(
      "\nShape check: faster walks cross cell boundaries more often, so handoffs\n"
      "rise with speed; denser corridors shrink the dead zones between cells,\n"
      "so loss falls as cell count grows at a given speed.\n\n");

  const std::string path = report.WriteFile();
  std::printf("report: %s\n", path.empty() ? "WRITE FAILED" : path.c_str());
  if (path.empty()) {
    return 1;
  }
  if (total_handoffs == 0) {
    std::printf("FAIL: no run ever handed off — the mobility loop is not closing\n");
    return 1;
  }
  if (total_received == 0 || total_sent == 0) {
    std::printf("FAIL: probe stream never delivered\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace msn

int main() { return msn::Main(); }
