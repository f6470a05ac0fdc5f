// One fuzz iteration: build the Figure 5 testbed from a ScenarioSpec, run the
// scripted movement, traffic, and fault timelines against it with the
// invariant oracles watching, and report what they found. Everything is
// derived from the spec's seed, so a run is exactly reproducible from its
// serialized scenario (or just the seed, for generated scenarios).
#ifndef MSN_SRC_CHECK_FUZZER_H_
#define MSN_SRC_CHECK_FUZZER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/check/oracles.h"
#include "src/check/scenario_gen.h"

namespace msn {

struct RunOptions {
  // Invoked after the testbed boots and traffic starts, just before the
  // movement script runs. Tests use this to sabotage the system under test
  // (inject a bug) and prove the oracles catch it; the hook is deliberately
  // not part of the scenario, so shrinking preserves it across candidates.
  std::function<void(Testbed&)> instrument;
  // Invoked after the run finished (oracles done, testbed still alive).
  // The differential datapath tests use this to snapshot end-state metrics
  // before the testbed is torn down.
  std::function<void(Testbed&)> on_complete;
};

struct RunResult {
  ScenarioSpec spec;
  OracleReport report;
  // Deterministic context for failure reports.
  std::string movement_summary;  // One line per movement step outcome.
  std::string fault_trace;       // FaultSchedule::Trace().
  uint64_t probes_sent = 0;
  uint64_t probes_lost = 0;

  [[nodiscard]] bool failed() const { return report.failed(); }
  // Byte-deterministic failure report: verdicts, scenario text, timelines.
  // Two runs of the same spec produce identical bytes.
  [[nodiscard]] std::string FailureReport() const;
};

// Executes `spec` against a fresh testbed. The spec is taken as-is (callers
// that edit event lists should NormalizeSpec first).
[[nodiscard]] RunResult RunScenario(const ScenarioSpec& spec, const RunOptions& options = {});

// GenerateScenario + RunScenario.
[[nodiscard]] RunResult FuzzOne(uint64_t seed, const RunOptions& options = {});

// FNV-1a digest of the end-state metrics: one "name=value" line per metric
// outside check.* (the oracle harness's own bookkeeping), in name order. The
// golden trace digests and the golden soak both pin it.
[[nodiscard]] uint64_t MetricsDigest(const MetricsRegistry& metrics);

// One seed's line in the golden soak (`fuzz_main --soak`,
// tests/golden/soak_1_2000.txt): its verdict, the oracles that fired, its
// MetricsDigest and the frames every medium carried.
struct SoakRecord {
  uint64_t seed = 0;
  std::vector<std::string> failed_oracles;  // Name-ordered; empty = pass.
  uint64_t metrics_digest = 0;
  uint64_t frames = 0;

  // "seed=N verdict=pass|FAIL oracle=<first failing oracle by name, or -> "
  // "metrics=<16 hex digits> frames=N".
  [[nodiscard]] std::string ToString() const;
};

// FuzzOne(seed), reduced to its soak record.
[[nodiscard]] SoakRecord SoakOne(uint64_t seed);

}  // namespace msn

#endif  // MSN_SRC_CHECK_FUZZER_H_
