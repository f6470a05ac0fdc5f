#include "src/check/fuzzer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/check/traffic.h"
#include "src/fault/fault_schedule.h"
#include "src/mip/movement_detector.h"
#include "src/mip/reg_load.h"
#include "src/mobility/mobility_driver.h"
#include "src/topo/scenario.h"

namespace msn {
namespace {

// Cell reach of the fuzzer's corridor layout; the binding helpers in
// topo/testbed.cc use the same figures for the distance->loss mapping.
constexpr double kWiredCellRangeM = 60.0;
constexpr double kRadioCellRangeM = 120.0;

// The host's motion model, seeded from its own labeled substream so mobility
// draws never perturb the generator's. The walk starts at the first station
// so the scripted wired departure lands in coverage.
std::unique_ptr<MobilityModel> BuildMobilityModel(const CampusMap& map, const MobilitySpec& mob,
                                                  const Rng& rng) {
  const Vec2 bounds{mob.map_w_m, mob.map_h_m};
  const Vec2 start =
      map.base_stations().empty() ? Vec2{} : map.base_stations().front().position;
  RandomWaypointModel::Params wp;
  wp.min_speed_mps = std::max(0.5, mob.speed_mps / 2.0);
  wp.max_speed_mps = mob.speed_mps;
  wp.max_pause = mob.max_pause;
  auto waypoint = std::make_unique<RandomWaypointModel>(bounds, start, wp, rng.Fork("waypoint"));
  if (mob.model == MobilitySpec::Model::kTrace) {
    // Exercise the trace format in the production path: record the waypoint
    // walk, round-trip it through the text serialization, replay that.
    TraceReplayModel recorded =
        TraceReplayModel::Record(*waypoint, Seconds(70), Milliseconds(500));
    auto parsed = TraceReplayModel::Parse(recorded.ToText());
    return std::make_unique<TraceReplayModel>(parsed.has_value() ? std::move(*parsed)
                                                                 : std::move(recorded));
  }
  if (mob.model == MobilitySpec::Model::kGroup) {
    return std::make_unique<GroupMobilityModel>(bounds, std::move(waypoint),
                                                GroupMobilityModel::Params{}, rng.Fork("group"));
  }
  return waypoint;
}

FaultProfile ProfileFromSpec(const FaultEventSpec& f) {
  FaultProfile profile;
  GilbertElliottParams burst;
  burst.p_enter_burst = f.p_enter_burst;
  burst.p_exit_burst = f.p_exit_burst;
  profile.burst_loss = burst;
  profile.duplicate_probability = f.duplicate_probability;
  profile.reorder_probability = f.reorder_probability;
  profile.corrupt_probability = f.corrupt_probability;
  return profile;
}

}  // namespace

std::string RunResult::FailureReport() const {
  std::string out = "=== scenario run ===\n";
  out += report.ToString();
  out += "--- scenario ---\n";
  out += spec.ToString();
  if (!movement_summary.empty()) {
    out += "--- movement ---\n";
    out += movement_summary;
  }
  if (!fault_trace.empty()) {
    out += "--- faults ---\n";
    out += fault_trace;
  }
  return out;
}

RunResult RunScenario(const ScenarioSpec& spec, const RunOptions& options) {
  TestbedConfig cfg;
  cfg.seed = spec.seed;
  cfg.transit_filter = spec.transit_filter;
  cfg.ha_on_router = spec.ha_on_router;
  cfg.external_ch = spec.external_ch;
  cfg.with_backup_ha = spec.backup_ha;
  cfg.mh_lifetime_sec = spec.lifetime_sec;
  if (spec.overload.enabled) {
    // The overload stanza owns the HA's pipeline shape (DESIGN.md §17);
    // without it the classic serial daemon is under test.
    cfg.ha_shards = spec.overload.shards;
    cfg.ha_batch_max = spec.overload.batch_max;
    cfg.ha_admission_limit = spec.overload.queue_limit;
  }
  // Calibrated mid-90s kernel delays triple the event count without changing
  // any protocol decision the oracles check; run in the fast timing regime.
  cfg.realistic_delays = false;

  Testbed tb(cfg);
  FaultInjector inject_home(tb.sim, *tb.net135, &tb.metrics);
  FaultInjector inject_wired(tb.sim, *tb.net8, &tb.metrics);
  FaultInjector inject_radio(tb.sim, *tb.radio134, &tb.metrics);
  auto injector_for = [&](FaultMedium medium) -> FaultInjector& {
    switch (medium) {
      case FaultMedium::kHome:
        return inject_home;
      case FaultMedium::kRadio:
        return inject_radio;
      case FaultMedium::kWired:
        break;
    }
    return inject_wired;
  };

  tb.StartMobileAtHome();

  // Fleet overload: a burst of synthetic registration clients on the visited
  // wired net, with home addresses in a 36.135.7.x block well clear of the
  // testbed's scripted hosts. Shed clients back off and re-try until
  // accepted, so by the settling window the whole fleet has converged.
  std::unique_ptr<Node> fleet_node;
  std::unique_ptr<RegistrationLoadGenerator> fleet;
  if (spec.overload.enabled) {
    fleet_node = std::make_unique<Node>(tb.sim, "fleet", &tb.metrics);
    EthernetDevice* fleet_dev = fleet_node->AddEthernet("eth0", tb.net8.get());
    fleet_dev->ForceUp();
    fleet_node->ConfigureInterface(fleet_dev, "36.8.7.250/16");
    fleet_node->AddDefaultRoute(Testbed::RouterOn8(), fleet_dev);

    RegistrationLoadGenerator::Config lc;
    lc.home_agent = tb.home_agent_address();
    lc.first_home = Ipv4Address(36, 135, 7, 1);
    lc.count = spec.overload.clients;
    lc.first_care_of = Ipv4Address(36, 8, 7, 1);
    lc.care_of_span = 250;
    lc.lifetime_sec = 600;  // Outlives the run: fleet bindings never expire.
    lc.start_delay = spec.overload.start;
    lc.interarrival = Duration::FromNanos(spec.overload.window.nanos() /
                                          std::max<uint32_t>(spec.overload.clients, 1));
    // Generous budget: an HA outage or a burst-loss profile can swallow a few
    // timeouts in a row, and backoff grows toward the 8 s cap long before ten
    // tries run out — so only a real protocol bug leaves a client given up.
    lc.max_retransmits = 10;
    fleet = std::make_unique<RegistrationLoadGenerator>(*fleet_node, lc);
    fleet->Start();
  }

  TrafficHarness traffic(tb, spec);
  MovementScript script(tb);
  for (const MoveEventSpec& m : spec.moves) {
    script.Add(m.at, m.kind, m.host_index);
  }
  FaultSchedule faults;
  for (const FaultEventSpec& f : spec.faults) {
    switch (f.kind) {
      case FaultEventSpec::Kind::kBlackout:
        faults.Blackout(f.at, injector_for(f.medium), f.length);
        break;
      case FaultEventSpec::Kind::kProfile:
        faults.Profile(f.at, injector_for(f.medium), ProfileFromSpec(f));
        break;
      case FaultEventSpec::Kind::kClearProfile:
        faults.ClearProfile(f.at, injector_for(f.medium));
        break;
      case FaultEventSpec::Kind::kHaOutage:
        faults.HaOutage(f.at, *tb.home_agent, f.length,
                        f.restart ? HaOutageKind::kDaemonRestart : HaOutageKind::kService);
        break;
      case FaultEventSpec::Kind::kHaCrash:
        // length 0 = the primary never rejoins; the backup carries the run.
        faults.HaCrash(f.at, *tb.home_agent, f.length);
        break;
    }
  }
  script.WithFaults(faults);

  // Physical mobility: a corridor of alternating wired/radio cells, a motion
  // model, and the driver closing the position -> quality -> handoff loop via
  // a signal-aware movement detector. Started shortly after the scripted
  // departure at 2s, so the home attachment's Ethernet (the same device as
  // the visited wired one) is not torn down while still serving net 36.135.
  std::unique_ptr<MovementDetector> detector;
  std::unique_ptr<MobilityDriver> mobility;
  if (spec.mobility.enabled) {
    const MobilitySpec& mob = spec.mobility;
    const uint32_t host_index = spec.moves.empty() ? 50 : spec.moves.front().host_index;
    CampusMap map = CampusMap::Corridor(mob.map_w_m, mob.map_h_m, static_cast<int>(mob.cells),
                                        kWiredCellRangeM, kRadioCellRangeM);
    std::unique_ptr<MobilityModel> model =
        BuildMobilityModel(map, mob, Rng(spec.seed).Fork("mobility-model"));

    MovementDetector::Config det_cfg;
    det_cfg.min_residency = Seconds(3);
    det_cfg.metrics = &tb.metrics;
    detector = std::make_unique<MovementDetector>(*tb.mobile, det_cfg);
    detector->AddCandidate({tb.WiredAttachment(host_index), /*preference=*/2});
    detector->AddCandidate({tb.WirelessAttachment(host_index), /*preference=*/1});

    MobilityDriver::Config drv_cfg;
    drv_cfg.metrics = &tb.metrics;
    mobility = std::make_unique<MobilityDriver>(*tb.mobile, *detector, std::move(map),
                                                std::move(model), drv_cfg);
    mobility->AddBinding(tb.WiredMobilityBinding(&inject_wired));
    mobility->AddBinding(tb.RadioMobilityBinding(&inject_radio));
    tb.sim.Schedule(Milliseconds(2500), [&mobility] { mobility->Start(); });
    tb.sim.Schedule(Milliseconds(3500), [&detector] { detector->Start(); });
  }

  OracleSuite::Media media{&inject_home, &inject_wired, &inject_radio};
  OracleSuite oracles(tb, spec, traffic, media);
  if (mobility != nullptr) {
    oracles.AttachMobility(mobility.get());
  }
  if (fleet != nullptr) {
    oracles.AttachFleet(fleet.get());
  }
  PeriodicTask tick(tb.sim, OracleSuite::kTickInterval, [&oracles] { oracles.OnTick(); });
  tick.Start();

  traffic.Start();
  if (options.instrument) {
    options.instrument(tb);
  }
  oracles.Begin();
  script.Run(spec.duration);
  oracles.Finish();
  if (options.on_complete) {
    options.on_complete(tb);
  }

  RunResult result;
  result.spec = spec;
  result.report = oracles.report();
  for (const MovementScript::Outcome& o : script.outcomes()) {
    result.movement_summary += o.Description();
    result.movement_summary += '\n';
  }
  result.fault_trace = faults.Trace();
  if (spec.traffic.probes) {
    result.probes_sent = traffic.probes().sent();
    result.probes_lost = traffic.probes().TotalLost();
  }
  return result;
}

RunResult FuzzOne(uint64_t seed, const RunOptions& options) {
  return RunScenario(GenerateScenario(seed), options);
}

uint64_t MetricsDigest(const MetricsRegistry& metrics) {
  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const auto& [name, value] : metrics.ScalarSnapshot()) {
    if (name.starts_with("check.")) {
      continue;
    }
    char line[256];
    std::snprintf(line, sizeof(line), "%s=%.17g\n", name.c_str(), value);
    for (const char* c = line; *c != '\0'; ++c) {
      digest = (digest ^ static_cast<uint8_t>(*c)) * 1099511628211ull;
    }
  }
  return digest;
}

std::string SoakRecord::ToString() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "seed=%" PRIu64 " verdict=%s oracle=%s metrics=%016" PRIx64 " frames=%" PRIu64,
                seed, failed_oracles.empty() ? "pass" : "FAIL",
                failed_oracles.empty() ? "-" : failed_oracles.front().c_str(), metrics_digest,
                frames);
  return line;
}

SoakRecord SoakOne(uint64_t seed) {
  SoakRecord record;
  record.seed = seed;
  RunOptions options;
  options.on_complete = [&record](Testbed& tb) {
    record.metrics_digest = MetricsDigest(tb.metrics);
    for (const auto& [name, value] : tb.metrics.ScalarSnapshot()) {
      if (name.ends_with(".frames_carried")) {
        record.frames += static_cast<uint64_t>(value);
      }
    }
  };
  const RunResult result = FuzzOne(seed, options);
  for (const auto& [oracle, violation] : result.report.violations) {
    record.failed_oracles.push_back(oracle);
  }
  return record;
}

}  // namespace msn
