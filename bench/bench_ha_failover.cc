// HA failover benchmark: packet loss and blackout duration across a
// fail-stop crash of the primary home agent, with and without a replica.
//
// Each run boots the testbed with the mobile host registered away on the
// wired foreign subnet while the correspondent streams sequenced UDP probes
// at the home address. At 4 s the (primary) home agent fail-stops and never
// rejoins. Without a replica the tunnel stays dark for the rest of the run;
// with the replicated pair the backup takes over from the mirrored binding
// table and the MH fails over to it, so the blackout is bounded by the
// takeover timeout plus the MH's renewal-escalation window.
//
// Output: a human-readable table plus the unified BENCH_ha_failover.json
// report (one row per cell). Exits non-zero if any with-replica run never
// resumes delivery, or if the no-replica baseline is not measurably worse.
#include <cstdio>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/node/udp.h"
#include "src/telemetry/export.h"
#include "src/topo/testbed.h"
#include "src/util/assert.h"
#include "src/util/stats.h"

namespace msn {
namespace {

constexpr Duration kCrashAt = Seconds(4);
constexpr Duration kHorizon = Seconds(30);
constexpr Duration kProbeInterval = Milliseconds(50);

struct Cell {
  bool replica = false;
  int runs = 0;
  int failures = 0;  // Runs where delivery never resumed after the crash.
  RunningStats blackout_ms;
  std::vector<double> blackout_samples_ms;
  RunningStats loss_fraction;
  uint64_t probes_sent = 0;
  uint64_t probes_lost = 0;
  uint64_t failovers = 0;  // MH active-HA switches across all runs.
};

void RunCell(Cell& cell, uint64_t seed, BenchReport* report) {
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.realistic_delays = false;
  cfg.with_backup_ha = cell.replica;
  cfg.mh_lifetime_sec = 5;
  Testbed tb(cfg);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);
  if (!tb.mobile->registered()) {
    ++cell.failures;
    return;
  }

  // Correspondent streams probes at the home address; the MH records every
  // arrival so the crash-induced delivery gap can be reconstructed exactly.
  std::vector<Time> arrivals;
  UdpSocket sink(tb.mh->stack());
  MSN_CHECK(sink.Bind(6001));
  sink.SetReceiveHandler([&](const std::vector<uint8_t>& data, const UdpSocket::Metadata& meta) {
    (void)data;
    (void)meta;
    arrivals.push_back(tb.sim.Now());
  });
  uint64_t sent = 0;
  UdpSocket source(tb.ch->stack());
  MSN_CHECK(source.Bind(6000));
  PeriodicTask probes(tb.sim, kProbeInterval, [&] {
    ++sent;
    source.SendTo(Testbed::HomeAddress(), 6001, std::vector<uint8_t>{0xbe, 0xef});
  });
  probes.Start();

  FaultSchedule schedule;
  schedule.HaCrash(kCrashAt, *tb.home_agent);  // Permanent: never rejoins.
  schedule.Arm(tb.sim);

  const Time crash_at = tb.sim.Now() + kCrashAt;
  const Time horizon = tb.sim.Now() + kHorizon;
  tb.RunFor(kHorizon);
  if (report != nullptr) {
    report->AddMetrics(tb.metrics);
  }

  // Blackout: gap between the last delivery before the crash and the first
  // one after it, censored at the horizon when delivery never resumes.
  Time last_before = Time::Zero();
  Time first_after = Time::Zero();
  for (const Time& at : arrivals) {
    if (at < crash_at) {
      last_before = at;
    } else {
      first_after = at;
      break;
    }
  }
  const bool resumed = first_after != Time::Zero();
  const Time dark_from = last_before != Time::Zero() ? last_before : crash_at;
  const double blackout_ms = ((resumed ? first_after : horizon) - dark_from).ToMillisF();

  ++cell.runs;
  cell.blackout_ms.Add(blackout_ms);
  cell.blackout_samples_ms.push_back(blackout_ms);
  cell.probes_sent += sent;
  cell.probes_lost += sent - static_cast<uint64_t>(arrivals.size());
  cell.loss_fraction.Add(
      sent == 0 ? 0.0 : 1.0 - static_cast<double>(arrivals.size()) / static_cast<double>(sent));
  cell.failovers += tb.mobile->counters().failover_count;
  if (cell.replica && !resumed) {
    ++cell.failures;
  }
}

int Main() {
  const int kRunsPerCell = BenchIterations(5, 2);

  BenchReport report("ha_failover",
                     "Probe loss and blackout across a fail-stop HA crash, with/without replica");
  report.set_seed(4000);
  report.AddParam("runs_per_cell", kRunsPerCell);
  report.AddParam("crash_at_ms", kCrashAt.millis());
  report.AddParam("horizon_ms", kHorizon.millis());
  report.AddParam("probe_interval_ms", kProbeInterval.millis());

  Cell cells[2];
  cells[0].replica = false;
  cells[1].replica = true;
  bool metrics_captured = false;
  for (Cell& cell : cells) {
    for (int run = 0; run < kRunsPerCell; ++run) {
      const uint64_t seed = 4000 + (cell.replica ? 100 : 0) + static_cast<uint64_t>(run);
      const bool capture = cell.replica && !metrics_captured;
      metrics_captured = metrics_captured || capture;
      RunCell(cell, seed, capture ? &report : nullptr);
    }
  }

  std::printf("=======================================================================\n");
  std::printf("HA failover: permanent fail-stop crash at %lld ms, %lld ms horizon,\n",
              static_cast<long long>(kCrashAt.millis()),
              static_cast<long long>(kHorizon.millis()));
  std::printf("CH probes the home address every %lld ms; %d runs/cell\n",
              static_cast<long long>(kProbeInterval.millis()), kRunsPerCell);
  std::printf("=======================================================================\n\n");
  std::printf("replica  blackout ms mean (stddev)       max     sent     lost  failovers  fail\n");
  std::printf("-------  -------------------------  --------  -------  -------  ---------  ----\n");
  for (const Cell& cell : cells) {
    std::printf("%7s  %-25s  %8.1f  %7llu  %7llu  %9llu  %4d\n",
                cell.replica ? "yes" : "no", cell.blackout_ms.Summary(1).c_str(),
                cell.blackout_ms.max(), static_cast<unsigned long long>(cell.probes_sent),
                static_cast<unsigned long long>(cell.probes_lost),
                static_cast<unsigned long long>(cell.failovers), cell.failures);
    report.AddRow(cell.replica ? "replica" : "no_replica",
                  {{"replica", cell.replica ? 1 : 0},
                   {"runs", cell.runs},
                   {"failures", cell.failures},
                   {"blackout_ms_mean", cell.blackout_ms.mean()},
                   {"blackout_ms_max", cell.blackout_ms.max()},
                   {"probes_sent", cell.probes_sent},
                   {"probes_lost", cell.probes_lost},
                   {"loss_fraction_mean", cell.loss_fraction.mean()},
                   {"failovers", cell.failovers}});
  }
  report.AddSummary("blackout_ms_no_replica", "ms", cells[0].blackout_samples_ms);
  report.AddSummary("blackout_ms_replica", "ms", cells[1].blackout_samples_ms);

  std::printf(
      "\nShape check: with the replica the blackout is bounded by the backup's\n"
      "takeover timeout plus the MH's renewal-escalation window (a few\n"
      "seconds); without it the tunnel stays dark to the horizon, so the\n"
      "no-replica blackout must be at least 2x the replicated one.\n\n");

  const std::string path = report.WriteFile();
  std::printf("report: %s\n", path.empty() ? "WRITE FAILED" : path.c_str());

  if (cells[1].failures > 0) {
    std::printf("FAIL: %d with-replica run(s) never resumed delivery\n", cells[1].failures);
    return 1;
  }
  if (cells[0].blackout_ms.mean() < 2.0 * cells[1].blackout_ms.mean()) {
    std::printf("FAIL: no-replica baseline (%.1f ms) not measurably worse than replica (%.1f ms)\n",
                cells[0].blackout_ms.mean(), cells[1].blackout_ms.mean());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace msn

int main() { return msn::Main(); }
