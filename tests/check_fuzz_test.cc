// Tests for the deterministic scenario fuzzer (DESIGN.md §13): generator
// determinism, scenario text round-trips, NormalizeSpec as a fixed point,
// clean seeds staying clean, byte-identical failure reports, and the full
// injected-bug pipeline — sabotage the home agent through RunOptions::
// instrument, watch an oracle catch it, and shrink the repro to a handful
// of events.
#include <gtest/gtest.h>

#include <string>

#include "src/check/fuzzer.h"
#include "src/check/scenario_gen.h"
#include "src/check/shrink.h"
#include "src/mip/home_agent.h"
#include "src/topo/testbed.h"

namespace msn {
namespace {

TEST(ScenarioGenTest, SameSeedSameScenario) {
  for (uint64_t seed : {1ULL, 7ULL, 1234567ULL}) {
    EXPECT_EQ(GenerateScenario(seed).ToString(), GenerateScenario(seed).ToString())
        << "seed " << seed;
  }
  EXPECT_NE(GenerateScenario(3).ToString(), GenerateScenario(4).ToString());
}

TEST(ScenarioGenTest, ToStringParseRoundTrip) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed);
    std::string error;
    const auto parsed = ScenarioSpec::Parse(spec.ToString(), &error);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed << ": " << error;
    EXPECT_EQ(parsed->ToString(), spec.ToString()) << "seed " << seed;
  }
}

TEST(ScenarioGenTest, NormalizeIsFixedPointOnGeneratorOutput) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed);
    EXPECT_EQ(NormalizeSpec(spec).ToString(), spec.ToString()) << "seed " << seed;
  }
}

TEST(ScenarioGenTest, SeedOnlyFileGenerates) {
  const auto parsed = ScenarioSpec::Parse("msn-fuzz-scenario-v1\nseed 42\nend\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ToString(), GenerateScenario(42).ToString());
}

TEST(ScenarioGenTest, ParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse("", &error).has_value());
  EXPECT_FALSE(ScenarioSpec::Parse("seed 1\n", &error).has_value())
      << "header must come first";
  EXPECT_FALSE(
      ScenarioSpec::Parse("msn-fuzz-scenario-v1\nbogus 1\nend\n", &error).has_value());
}

TEST(CheckFuzzTest, CleanSeedsStayClean) {
  // A window of the seed space the fuzzer has been soaked on; a violation
  // here is a regression in the simulator or an over-eager oracle.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const RunResult result = FuzzOne(seed);
    EXPECT_FALSE(result.failed())
        << "seed " << seed << "\n"
        << result.FailureReport();
    EXPECT_GT(result.report.checks, 0u) << "seed " << seed;
  }
}

TEST(CheckFuzzTest, CleanRunIsDeterministic) {
  const RunResult a = FuzzOne(5);
  const RunResult b = FuzzOne(5);
  EXPECT_EQ(a.movement_summary, b.movement_summary);
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.probes_lost, b.probes_lost);
  EXPECT_EQ(a.report.checks, b.report.checks);
  EXPECT_EQ(a.report.ToString(), b.report.ToString());
}

TEST(CheckFuzzTest, OverloadStanzaShedsAndConverges) {
  // The overload stanza draws its offered rate relative to the drawn
  // pipeline's knee, so among a window of generated overload seeds at least
  // one burst must genuinely exceed capacity and trip the admission filter —
  // while every such run still passes its oracles (the fleet converges).
  uint64_t overload_runs = 0;
  uint64_t shed_runs = 0;
  for (uint64_t seed = 1; seed <= 60 && shed_runs == 0; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed);
    if (!spec.overload.enabled) {
      continue;
    }
    ++overload_runs;
    uint64_t denied = 0;
    RunOptions options;
    options.instrument = [&](Testbed& tb) {
      tb.sim.Schedule(spec.duration - Milliseconds(1), [&denied, &tb] {
        denied = tb.home_agent->counters().admission_denied;
      });
    };
    const RunResult result = RunScenario(spec, options);
    EXPECT_FALSE(result.failed()) << "seed " << seed << "\n" << result.FailureReport();
    if (denied > 0) {
      shed_runs = 1;
    }
  }
  EXPECT_GT(overload_runs, 0u) << "no generated seed enabled the overload stanza";
  EXPECT_EQ(shed_runs, 1u) << "no overload burst ever tripped the admission filter";
}

// A hand-built scenario with deliberately more events than the failure
// needs, so the shrinker has something to earn. The host ends away from
// home on the visited wired net with a short registration lifetime.
ScenarioSpec BuggyHostScenario() {
  ScenarioSpec spec;
  spec.seed = 77;
  spec.lifetime_sec = 6;
  spec.traffic.probes = true;
  spec.duration = Seconds(45);
  spec.moves = {
      {Seconds(2), MovementScript::Kind::kWiredCold, 50},
      {Seconds(5), MovementScript::Kind::kAddressSwitch, 51},
      {Seconds(8), MovementScript::Kind::kWirelessCold, 60},
      {Seconds(11), MovementScript::Kind::kWirelessHot, 61},
      {Seconds(15), MovementScript::Kind::kWiredCold, 52},
  };
  FaultEventSpec blackout;
  blackout.at = Seconds(3);
  blackout.kind = FaultEventSpec::Kind::kBlackout;
  blackout.medium = FaultMedium::kHome;
  blackout.length = Milliseconds(800);
  FaultEventSpec profile;
  profile.at = Seconds(6);
  profile.kind = FaultEventSpec::Kind::kProfile;
  profile.medium = FaultMedium::kRadio;
  profile.p_enter_burst = 0.05;
  profile.p_exit_burst = 0.5;
  FaultEventSpec clear;
  clear.at = Seconds(9);
  clear.kind = FaultEventSpec::Kind::kClearProfile;
  clear.medium = FaultMedium::kRadio;
  FaultEventSpec late_blackout;
  late_blackout.at = Milliseconds(12500);
  late_blackout.kind = FaultEventSpec::Kind::kBlackout;
  late_blackout.medium = FaultMedium::kRadio;
  late_blackout.length = Milliseconds(500);
  spec.faults = {blackout, profile, clear, late_blackout};
  return NormalizeSpec(spec);
}

// The injected bug: 20 s in, the home agent dies and never comes back. The
// hook is not part of the scenario, so shrinking carries it into every
// candidate run.
RunOptions PermanentHaOutage() {
  RunOptions options;
  options.instrument = [](Testbed& tb) {
    HomeAgent* ha = tb.home_agent.get();
    tb.sim.Schedule(Seconds(20), [ha] { ha->BeginOutage(HaOutageKind::kService); });
  };
  return options;
}

TEST(CheckFuzzTest, InjectedBugIsCaughtByAnOracle) {
  const ScenarioSpec spec = BuggyHostScenario();
  const RunResult result = RunScenario(spec, PermanentHaOutage());
  ASSERT_TRUE(result.failed()) << "permanent HA outage went unnoticed";
  // The renewal after the outage can never complete, so the settling run
  // misses its promised registered-away terminal state.
  EXPECT_TRUE(result.report.violations.count("registration-liveness") ||
              result.report.violations.count("binding-agreement"))
      << result.report.ToString();
}

TEST(CheckFuzzTest, FailureReportIsByteDeterministic) {
  const ScenarioSpec spec = BuggyHostScenario();
  const RunResult a = RunScenario(spec, PermanentHaOutage());
  const RunResult b = RunScenario(spec, PermanentHaOutage());
  ASSERT_TRUE(a.failed());
  EXPECT_EQ(a.FailureReport(), b.FailureReport());
}

TEST(CheckFuzzTest, ShrinkerMinimizesInjectedBug) {
  const ScenarioSpec spec = BuggyHostScenario();
  const RunOptions options = PermanentHaOutage();
  const ShrinkResult shrunk = ShrinkScenario(spec, options);
  EXPECT_FALSE(shrunk.oracle.empty()) << "original scenario did not fail";
  EXPECT_TRUE(shrunk.final_report.failed());
  EXPECT_TRUE(shrunk.final_report.violations.count(shrunk.oracle))
      << shrunk.final_report.ToString();
  EXPECT_LT(shrunk.minimized_events, shrunk.original_events);
  EXPECT_LE(shrunk.minimized_events, 10u);
  // The minimized scenario replays to the same verdict.
  const RunResult replay = RunScenario(shrunk.minimized, options);
  EXPECT_TRUE(replay.report.violations.count(shrunk.oracle))
      << replay.report.ToString();
}

TEST(CheckFuzzTest, ShrinkOfPassingScenarioIsIdentity) {
  const ScenarioSpec spec = GenerateScenario(1);
  const ShrinkResult shrunk = ShrinkScenario(spec);
  EXPECT_TRUE(shrunk.oracle.empty());
  EXPECT_EQ(shrunk.runs, 1);
  EXPECT_EQ(shrunk.minimized.ToString(), spec.ToString());
}

}  // namespace
}  // namespace msn
