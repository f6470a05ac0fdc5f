// Replays every checked-in fuzzer scenario under tests/corpus/ and requires
// a clean oracle report. Each corpus file pins a scenario shape that once
// exercised a subtle recovery path (see the comment at the top of each
// file); a violation here means a regression in the simulator or an oracle
// that grew too eager. The same scenarios also hold the per-tick oracle,
// mobility and detector paths to no registry name lookups. MSN_CORPUS_DIR is
// injected by CMake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/fuzzer.h"
#include "src/check/scenario_gen.h"

namespace msn {
namespace {

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(MSN_CORPUS_DIR)) {
    if (entry.path().extension() == ".seed") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CorpusReplayTest, EveryCorpusScenarioRunsClean) {
  const auto files = CorpusFiles();
  ASSERT_GE(files.size(), 3u) << "corpus went missing from " << MSN_CORPUS_DIR;
  for (const auto& path : files) {
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();

    std::string error;
    const auto spec = ScenarioSpec::Parse(buffer.str(), &error);
    ASSERT_TRUE(spec.has_value()) << path << ": " << error;

    const RunResult result = RunScenario(*spec);
    EXPECT_FALSE(result.failed()) << path << "\n" << result.FailureReport();
    EXPECT_GT(result.report.checks, 0u) << path;
  }
}

TEST(CorpusReplayTest, OracleTicksMakeNoNameLookups) {
  // Oracles, the mobility driver and the movement detector resolve each
  // metric once and then go through the kept reference, so a whole run makes
  // fewer registry name lookups than the suite makes ticks.
  for (const auto& path : CorpusFiles()) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto spec = ScenarioSpec::Parse(buffer.str());
    ASSERT_TRUE(spec.has_value()) << path;

    uint64_t lookups_at_start = 0;
    uint64_t lookups = 0;
    Time start;
    Duration window;
    RunOptions options;
    options.instrument = [&](Testbed& tb) {
      lookups_at_start = tb.metrics.lookups();
      start = tb.sim.Now();
    };
    options.on_complete = [&](Testbed& tb) {
      lookups = tb.metrics.lookups() - lookups_at_start;
      window = tb.sim.Now() - start;
    };
    (void)RunScenario(*spec, options);
    const int64_t ticks = window.nanos() / OracleSuite::kTickInterval.nanos();
    EXPECT_GT(ticks, 0) << path;
    EXPECT_LT(static_cast<int64_t>(lookups), ticks) << path;
  }
}

TEST(CorpusReplayTest, CorpusSpecsAreNormalized) {
  // A corpus file that NormalizeSpec would rewrite is silently testing a
  // different scenario than its text claims; keep them fixed points.
  for (const auto& path : CorpusFiles()) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto spec = ScenarioSpec::Parse(buffer.str());
    ASSERT_TRUE(spec.has_value()) << path;
    EXPECT_EQ(NormalizeSpec(*spec).ToString(), spec->ToString()) << path;
  }
}

}  // namespace
}  // namespace msn
