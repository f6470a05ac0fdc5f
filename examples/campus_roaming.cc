// Campus roaming: the physical mobility subsystem end to end (DESIGN.md §15).
//
// A mobile host walks a 600 m corridor of alternating wired drop zones and
// Metricom radio cells under a random-waypoint model. Nothing is scripted:
// the mobility driver turns the host's position into per-medium loss, RSSI,
// and latency every 250 ms, and the signal-aware movement detector decides
// every handoff from what the "hardware" reports — hot-switching between
// cells as coverage shifts, re-registering with the home agent each time,
// while a correspondent outside the campus streams datagrams at the home
// address the whole way.
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/mip/movement_detector.h"
#include "src/mobility/mobility_driver.h"
#include "src/node/udp.h"
#include "src/topo/testbed.h"
#include "src/util/assert.h"

using namespace msn;

int main() {
  std::printf("=== Campus roaming: motion-driven handoff (DESIGN.md S15) ===\n\n");

  TestbedConfig cfg;
  cfg.seed = 3;
  cfg.external_ch = true;
  Testbed tb(cfg);
  FaultInjector inject_wired(tb.sim, *tb.net8, &tb.metrics);
  FaultInjector inject_radio(tb.sim, *tb.radio134, &tb.metrics);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);

  // A 600x200 m corridor: wired drop zones (60 m reach) alternating with
  // radio cells (120 m reach), and a 1.5 m/s stroll between random waypoints.
  CampusMap map = CampusMap::Corridor(600.0, 200.0, 4, 60.0, 120.0);
  const Vec2 start = map.base_stations().front().position;
  RandomWaypointModel::Params wp;
  wp.min_speed_mps = 1.0;
  wp.max_speed_mps = 2.0;
  wp.max_pause = Seconds(2);
  auto walk = std::make_unique<RandomWaypointModel>(Vec2{600.0, 200.0}, start, wp,
                                                    Rng(cfg.seed).Fork("walk"));

  MovementDetector::Config mc;
  mc.min_residency = Seconds(3);
  mc.metrics = &tb.metrics;
  MovementDetector detector(*tb.mobile, mc);
  detector.AddCandidate({tb.WiredAttachment(50), /*preference=*/2});
  detector.AddCandidate({tb.WirelessAttachment(50), /*preference=*/1});
  detector.SetAttachmentChangeHandler([&](const LinkCharacteristics& link, bool registered) {
    std::printf("  [detector] t=%.1fs now on %s (loss %.2f, registered=%s)\n",
                tb.sim.Now().ToSecondsF(), link.device_name.c_str(), link.loss_estimate,
                registered ? "yes" : "no");
  });

  MobilityDriver::Config dc;
  dc.metrics = &tb.metrics;
  // RSSI and coverage feed: hand off on fading signal, before probes die.
  MobilityDriver driver(*tb.mobile, detector, std::move(map), std::move(walk), dc);
  driver.AddBinding(tb.WiredMobilityBinding(&inject_wired));
  driver.AddBinding(tb.RadioMobilityBinding(&inject_radio));
  driver.Start();
  detector.Start();

  // Correspondent streams at the home address throughout the walk.
  uint64_t received = 0;
  UdpSocket sink(tb.mh->stack());
  MSN_CHECK(sink.Bind(6001));
  sink.SetReceiveHandler(
      [&](const std::vector<uint8_t>&, const UdpSocket::Metadata&) { ++received; });
  uint64_t sent = 0;
  UdpSocket source(tb.ch->stack());
  MSN_CHECK(source.Bind(6000));
  PeriodicTask stream(tb.sim, Milliseconds(100), [&] {
    ++sent;
    source.SendTo(Testbed::HomeAddress(), 6001, std::vector<uint8_t>(64, 0x51));
  });
  stream.Start();

  std::printf("walking for 120 s...\n");
  tb.RunFor(Seconds(120));

  const Vec2 pos = driver.position();
  std::printf("\nResults after 120 s:\n");
  std::printf("  final position (%.0f, %.0f) m; serving device %s, registered=%s\n", pos.x,
              pos.y, tb.mobile->attachment().device->name().c_str(),
              tb.mobile->registered() ? "yes" : "no");
  std::printf("  handoffs: %llu signal-driven, %llu coverage-forced; pingpong vetoes %llu\n",
              static_cast<unsigned long long>(driver.counters().handoffs_signal),
              static_cast<unsigned long long>(driver.counters().handoffs_coverage),
              static_cast<unsigned long long>(detector.counters().pingpong_suppressed));
  std::printf("  stream: %llu sent, %llu delivered (%.1f%% loss in flight)\n",
              static_cast<unsigned long long>(sent), static_cast<unsigned long long>(received),
              sent == 0 ? 0.0 : 100.0 * (1.0 - static_cast<double>(received) / sent));
  std::printf("  cell residency (driver ticks):\n");
  for (const auto& [name, value] : tb.metrics.ScalarSnapshot("mobility.residency.")) {
    std::printf("    %-28s %6.0f\n", name.c_str(), value);
  }
  std::printf("\nEvery handoff above emerged from the walk — no scripted faults, no\n"
              "scripted moves, just position, signal, and the movement detector.\n");
  return 0;
}
