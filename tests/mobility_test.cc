// Tests for the physical mobility subsystem (DESIGN.md §15): motion-model
// determinism, the trace text format, the distance -> quality mapping, and
// the driver closing the position -> quality -> handoff loop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/mip/movement_detector.h"
#include "src/mobility/campus_map.h"
#include "src/mobility/link_quality.h"
#include "src/mobility/mobility_driver.h"
#include "src/mobility/mobility_model.h"
#include "src/topo/testbed.h"

namespace msn {
namespace {

constexpr double kMapW = 400.0;
constexpr double kMapH = 200.0;

std::unique_ptr<RandomWaypointModel> MakeWaypoint(uint64_t seed) {
  RandomWaypointModel::Params params;
  params.min_speed_mps = 2.0;
  params.max_speed_mps = 8.0;
  params.max_pause = Seconds(1);
  return std::make_unique<RandomWaypointModel>(Vec2{kMapW, kMapH}, Vec2{50.0, 100.0}, params,
                                               Rng(seed).Fork("walk"));
}

// Serializes a model's path so byte comparison covers every sampled position.
std::string PathOf(MobilityModel& model) {
  return TraceReplayModel::Record(model, Seconds(30), Milliseconds(250)).ToText();
}

TEST(MobilityModelDeterminism, WaypointSameSeedSamePath) {
  auto a = MakeWaypoint(7);
  auto b = MakeWaypoint(7);
  auto c = MakeWaypoint(8);
  const std::string path_a = PathOf(*a);
  EXPECT_EQ(path_a, PathOf(*b));
  EXPECT_NE(path_a, PathOf(*c));  // A different seed takes a different walk.
}

TEST(MobilityModelDeterminism, GroupSameSeedSamePath) {
  GroupMobilityModel::Params gp;
  auto make = [&](uint64_t seed) {
    return GroupMobilityModel(Vec2{kMapW, kMapH}, MakeWaypoint(seed), gp,
                              Rng(seed).Fork("offset"));
  };
  GroupMobilityModel a = make(11);
  GroupMobilityModel b = make(11);
  GroupMobilityModel c = make(12);
  const std::string path_a = PathOf(a);
  EXPECT_EQ(path_a, PathOf(b));
  EXPECT_NE(path_a, PathOf(c));
}

TEST(MobilityModelDeterminism, GroupStaysNearReference) {
  GroupMobilityModel::Params gp;
  gp.max_offset_m = 25.0;
  auto reference = MakeWaypoint(3);
  auto shadow = MakeWaypoint(3);  // Same seed: retraces the reference's walk.
  GroupMobilityModel member(Vec2{kMapW, kMapH}, std::move(reference), gp, Rng(3).Fork("offset"));
  for (int i = 0; i < 200; ++i) {
    const Vec2 member_pos = member.Advance(Milliseconds(250));
    const Vec2 ref_pos = shadow->Advance(Milliseconds(250));
    // Clamping at the map edge can only pull the member toward the reference.
    EXPECT_LE(Distance(member_pos, ref_pos), gp.max_offset_m + 1e-9);
  }
}

TEST(TraceReplay, TextRoundTripIsFixedPoint) {
  auto walk = MakeWaypoint(21);
  TraceReplayModel recorded = TraceReplayModel::Record(*walk, Seconds(20), Milliseconds(500));
  const std::string text = recorded.ToText();
  std::string error;
  auto parsed = TraceReplayModel::Parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->ToText(), text);
  EXPECT_EQ(parsed->points().size(), recorded.points().size());
}

TEST(TraceReplay, RejectsMalformedText) {
  EXPECT_FALSE(TraceReplayModel::Parse("").has_value());
  EXPECT_FALSE(TraceReplayModel::Parse("msn-trace-v2\nend\n").has_value());
  EXPECT_FALSE(TraceReplayModel::Parse("msn-trace-v1\np 0 1\nend\n").has_value());
  std::string error;
  EXPECT_FALSE(
      TraceReplayModel::Parse("msn-trace-v1\np 5000 1 2\np 1000 3 4\nend\n", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceReplay, InterpolatesBetweenPointsAndHoldsOutside) {
  TraceReplayModel trace({{Seconds(0), {0.0, 0.0}}, {Seconds(10), {100.0, 50.0}}});
  EXPECT_DOUBLE_EQ(trace.position().x, 0.0);
  Vec2 mid = trace.Advance(Seconds(5));
  EXPECT_NEAR(mid.x, 50.0, 1e-9);
  EXPECT_NEAR(mid.y, 25.0, 1e-9);
  Vec2 end = trace.Advance(Seconds(5));
  EXPECT_NEAR(end.x, 100.0, 1e-9);
  // Past the last point the position holds.
  Vec2 held = trace.Advance(Seconds(60));
  EXPECT_NEAR(held.x, 100.0, 1e-9);
  EXPECT_NEAR(held.y, 50.0, 1e-9);
}

TEST(LinkQuality, RssiStrictlyDecreasingWithDistance) {
  RadioParams params;
  double previous = RssiDbm(params, 0.0);
  for (double d = 2.0; d <= 300.0; d += 2.0) {
    const double rssi = RssiDbm(params, d);
    EXPECT_LT(rssi, previous) << "at distance " << d;
    previous = rssi;
  }
}

TEST(LinkQuality, LossMonotoneAndSaturating) {
  RadioParams params;  // range 120 m, good fraction 0.6 -> clean inside 72 m.
  double previous = -1.0;
  for (double d = 0.0; d <= 240.0; d += 1.0) {
    const double loss = LossAtDistance(params, d);
    EXPECT_GE(loss, previous) << "at distance " << d;
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, 1.0);
    previous = loss;
  }
  EXPECT_DOUBLE_EQ(LossAtDistance(params, 50.0), 0.0);   // Deep in the cell.
  EXPECT_DOUBLE_EQ(LossAtDistance(params, 150.0), 1.0);  // Beyond range.
}

TEST(LinkQuality, LatencyGrowsTowardCellEdge) {
  RadioParams params;
  EXPECT_EQ(LatencyAtDistance(params, 10.0).nanos(), 0);
  const Duration near_edge = LatencyAtDistance(params, 110.0);
  const Duration mid = LatencyAtDistance(params, 90.0);
  EXPECT_GT(near_edge.nanos(), mid.nanos());
  EXPECT_LE(near_edge.nanos(), params.edge_latency.nanos());
}

TEST(CampusMapLayout, CorridorAlternatesMediaAndClamps) {
  CampusMap map = CampusMap::Corridor(kMapW, kMapH, 4, 60.0, 120.0);
  ASSERT_EQ(map.base_stations().size(), 4u);
  EXPECT_EQ(map.base_stations()[0].medium, CellMedium::kWired);
  EXPECT_EQ(map.base_stations()[1].medium, CellMedium::kRadio);
  EXPECT_EQ(map.base_stations()[0].name, "wired0");
  EXPECT_EQ(map.base_stations()[1].name, "radio1");

  double d = 0.0;
  const BaseStation* nearest =
      map.Nearest(CellMedium::kRadio, map.base_stations()[1].position, &d);
  ASSERT_NE(nearest, nullptr);
  EXPECT_EQ(nearest->name, "radio1");
  EXPECT_DOUBLE_EQ(d, 0.0);

  const Vec2 clamped = map.Clamp({-5.0, 500.0});
  EXPECT_DOUBLE_EQ(clamped.x, 0.0);
  EXPECT_DOUBLE_EQ(clamped.y, kMapH);
}

// End-to-end: a host walking a recorded path from a wired drop zone into a
// radio cell hands off because of motion alone — no scripted faults, no
// scripted moves — and the mobility.* telemetry records the journey.
TEST(MobilityDriverIntegration, WalkAcrossCampusCausesEmergentHandoff) {
  TestbedConfig cfg;
  cfg.seed = 5;
  Testbed tb(cfg);
  FaultInjector inject_wired(tb.sim, *tb.net8, &tb.metrics);
  FaultInjector inject_radio(tb.sim, *tb.radio134, &tb.metrics);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);

  CampusMap map = CampusMap::Corridor(kMapW, kMapH, 4, 60.0, 120.0);
  const Vec2 wired_home = map.base_stations()[0].position;
  const Vec2 radio_cell = map.base_stations()[1].position;
  // Sit in the drop zone for 5 s, stroll to the radio cell over 15 s, stay.
  auto trace = std::make_unique<TraceReplayModel>(std::vector<TraceReplayModel::Point>{
      {Seconds(0), wired_home},
      {Seconds(5), wired_home},
      {Seconds(20), radio_cell},
      {Seconds(60), radio_cell},
  });

  MovementDetector::Config det_cfg;
  det_cfg.min_residency = Seconds(3);
  det_cfg.metrics = &tb.metrics;
  MovementDetector detector(*tb.mobile, det_cfg);
  detector.AddCandidate({tb.WiredAttachment(50), /*preference=*/2});
  detector.AddCandidate({tb.WirelessAttachment(50), /*preference=*/1});

  MobilityDriver::Config drv_cfg;
  drv_cfg.metrics = &tb.metrics;
  MobilityDriver driver(*tb.mobile, detector, std::move(map), std::move(trace), drv_cfg);
  driver.AddBinding(tb.WiredMobilityBinding(&inject_wired));
  driver.AddBinding(tb.RadioMobilityBinding(&inject_radio));
  driver.Start();
  detector.Start();

  tb.RunFor(Seconds(40));

  // The walk forced the host onto the radio, and it re-registered there.
  EXPECT_EQ(tb.mobile->attachment().device, tb.mh_radio);
  EXPECT_TRUE(tb.mobile->registered());
  EXPECT_GE(driver.counters().handoffs_signal + driver.counters().handoffs_coverage, 1u);

  // Telemetry: the driver ticked, tracked the position, and attributed
  // residency to cells of both media along the way.
  EXPECT_GT(tb.metrics.ReadValue("mobility.ticks").value_or(0.0), 100.0);
  EXPECT_NEAR(tb.metrics.ReadValue("mobility.pos_x_m").value_or(-1.0), radio_cell.x, 1.0);
  EXPECT_GT(tb.metrics.ReadValue("mobility.residency.wired0").value_or(0.0), 0.0);
  EXPECT_GT(tb.metrics.ReadValue("mobility.residency.radio1").value_or(0.0), 0.0);
  // The detector saw the driver's RSSI feed for both devices.
  EXPECT_TRUE(tb.metrics.ReadValue("mh.movedet.rssi_dbm.eth0").has_value());
  EXPECT_TRUE(tb.metrics.ReadValue("mh.movedet.rssi_dbm.strip0").has_value());
}

// A cold switch's bring-up that is still in flight when the host walks into
// the device's cell keeps its completion: association leaves a device that
// is bringing up alone instead of forcing it up under the switch.
TEST(MobilityDriverIntegration, EnteringCoverageKeepsBringUpInFlight) {
  TestbedConfig cfg;
  cfg.seed = 5;
  Testbed tb(cfg);
  FaultInjector inject_wired(tb.sim, *tb.net8, &tb.metrics);
  FaultInjector inject_radio(tb.sim, *tb.radio134, &tb.metrics);
  tb.StartMobileAtHome();
  tb.StartMobileOnWired(50);

  CampusMap map = CampusMap::Corridor(kMapW, kMapH, 4, 60.0, 120.0);
  const Vec2 radio_cell = map.base_stations()[1].position;
  auto trace = std::make_unique<TraceReplayModel>(
      std::vector<TraceReplayModel::Point>{{Seconds(0), radio_cell}});
  MovementDetector detector(*tb.mobile, MovementDetector::Config{});
  detector.AddCandidate({tb.WiredAttachment(50), /*preference=*/2});
  detector.AddCandidate({tb.WirelessAttachment(50), /*preference=*/1});
  MobilityDriver driver(*tb.mobile, detector, std::move(map), std::move(trace),
                        MobilityDriver::Config{});
  driver.AddBinding(tb.WiredMobilityBinding(&inject_wired));
  driver.AddBinding(tb.RadioMobilityBinding(&inject_radio));

  ASSERT_EQ(tb.mh_radio->state(), NetDevice::State::kDown);
  bool brought_up = false;
  tb.mh_radio->BringUp([&brought_up] { brought_up = true; });
  ASSERT_EQ(tb.mh_radio->state(), NetDevice::State::kBringingUp);
  driver.Start();  // The first tick finds the radio in coverage.

  tb.RunFor(Seconds(5));
  EXPECT_TRUE(brought_up);
  EXPECT_TRUE(tb.mh_radio->IsUp());
}

}  // namespace
}  // namespace msn
