// Standalone fuzz driver for the deterministic scenario fuzzer (DESIGN.md
// §13). Derives scenarios from sequential seeds, runs each against a fresh
// testbed with the invariant oracles watching, and on the first failure
// prints a byte-deterministic report, shrinks the scenario to a minimal
// reproducing event list, and writes the minimized scenario to a replay file.
//
//   fuzz_main --seed 1 --runs 100          # fuzz seeds 1..100
//   fuzz_main --time-budget 60             # stop after ~60s wall clock
//   fuzz_main --replay failure.scenario    # re-run a saved scenario
//   fuzz_main --soak 1..2000               # golden soak: one line per seed
//
// --soak runs every seed of the window in this one process, never stops at a
// failure and never shrinks. It prints one SoakRecord line per seed (verdict,
// first failing oracle, end-state metric digest, frames carried) and a
// footer counting failing seeds per oracle; tests/golden/soak_1_2000.txt is
// its output for seeds 1..2000.
//
// Exit code: 0 = no violations, 1 = an oracle fired, 2 = usage/parse error.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/check/fuzzer.h"
#include "src/check/shrink.h"
#include "src/util/logging.h"

namespace {

struct Options {
  uint64_t seed = 1;
  int runs = 100;
  int time_budget_sec = 0;  // 0 = unlimited.
  int shrink_runs = 120;
  bool dump = false;  // Print the generated scenario for --seed and exit.
  uint64_t soak_first = 0;  // --soak FIRST..LAST; 0 = not soaking.
  uint64_t soak_last = 0;
  std::string log_level;  // trace|debug|info|warn; empty = quiet.
  std::string replay_path;
  std::string out_path = "fuzz_failure.scenario";
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--runs N] [--time-budget SEC] [--shrink-runs N]\n"
               "          [--replay FILE] [--out FILE] [--soak FIRST..LAST]\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](long long* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = std::atoll(argv[++i]);
      return true;
    };
    long long v = 0;
    if (arg == "--seed" && next(&v)) {
      opts->seed = static_cast<uint64_t>(v);
    } else if (arg == "--runs" && next(&v)) {
      opts->runs = static_cast<int>(v);
    } else if (arg == "--time-budget" && next(&v)) {
      opts->time_budget_sec = static_cast<int>(v);
    } else if (arg == "--shrink-runs" && next(&v)) {
      opts->shrink_runs = static_cast<int>(v);
    } else if (arg == "--dump") {
      opts->dump = true;
    } else if (arg == "--log" && i + 1 < argc) {
      opts->log_level = argv[++i];
    } else if (arg == "--replay" && i + 1 < argc) {
      opts->replay_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      opts->out_path = argv[++i];
    } else if (arg == "--soak" && i + 1 < argc) {
      unsigned long long first = 0;
      unsigned long long last = 0;
      char tail = 0;
      if (std::sscanf(argv[++i], "%llu..%llu%c", &first, &last, &tail) != 2 || first == 0 ||
          last < first) {
        Usage(argv[0]);
        return false;
      }
      opts->soak_first = first;
      opts->soak_last = last;
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

// Prints the failure, shrinks, writes the replay artifact. Returns 1.
int HandleFailure(const msn::RunResult& result, const Options& opts) {
  std::printf("FAILURE seed=%" PRIu64 "\n%s", result.spec.seed, result.FailureReport().c_str());

  msn::ShrinkResult shrunk = msn::ShrinkScenario(result.spec, {}, opts.shrink_runs);
  std::printf("--- shrink ---\n%s", shrunk.Summary().c_str());
  std::printf("--- minimized scenario ---\n%s", shrunk.minimized.ToString().c_str());
  std::printf("--- minimized report ---\n%s", shrunk.final_report.ToString().c_str());

  std::ofstream out(opts.out_path);
  if (out) {
    out << "# minimized repro, oracle: " << shrunk.oracle << "\n"
        << shrunk.minimized.ToString();
    std::printf("replay file written to %s\n", opts.out_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", opts.out_path.c_str());
  }
  return 1;
}

// Prints one line per seed, then per-oracle failure counts. Returns 1 if any
// seed failed.
int Soak(const Options& opts) {
  uint64_t failed = 0;
  std::map<std::string, uint64_t> per_oracle;
  for (uint64_t seed = opts.soak_first; seed <= opts.soak_last; ++seed) {
    const msn::SoakRecord record = msn::SoakOne(seed);
    std::printf("%s\n", record.ToString().c_str());
    if (!record.failed_oracles.empty()) {
      ++failed;
    }
    for (const std::string& oracle : record.failed_oracles) {
      ++per_oracle[oracle];
    }
  }
  std::printf("# seeds %" PRIu64 "..%" PRIu64 ": %" PRIu64 " failed\n", opts.soak_first,
              opts.soak_last, failed);
  for (const auto& [oracle, seeds] : per_oracle) {
    std::printf("# %s %" PRIu64 "\n", oracle.c_str(), seeds);
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    return 2;
  }

  if (!opts.log_level.empty()) {
    if (opts.log_level == "trace") {
      msn::SetLogLevel(msn::LogLevel::kTrace);
    } else if (opts.log_level == "debug") {
      msn::SetLogLevel(msn::LogLevel::kDebug);
    } else if (opts.log_level == "info") {
      msn::SetLogLevel(msn::LogLevel::kInfo);
    } else if (opts.log_level == "warn") {
      msn::SetLogLevel(msn::LogLevel::kWarning);
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  if (opts.dump) {
    std::printf("%s", msn::GenerateScenario(opts.seed).ToString().c_str());
    return 0;
  }

  if (opts.soak_first != 0) {
    return Soak(opts);
  }

  if (!opts.replay_path.empty()) {
    std::ifstream in(opts.replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", opts.replay_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const auto spec = msn::ScenarioSpec::Parse(buffer.str(), &error);
    if (!spec.has_value()) {
      std::fprintf(stderr, "parse error in %s: %s\n", opts.replay_path.c_str(), error.c_str());
      return 2;
    }
    msn::RunResult result = msn::RunScenario(*spec);
    std::printf("%s", result.FailureReport().c_str());
    return result.failed() ? 1 : 0;
  }

  const auto start = std::chrono::steady_clock::now();
  uint64_t total_checks = 0;
  int completed = 0;
  for (int i = 0; i < opts.runs; ++i) {
    if (opts.time_budget_sec > 0) {
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (elapsed >= std::chrono::seconds(opts.time_budget_sec)) {
        std::fprintf(stderr, "time budget exhausted after %d run(s)\n", completed);
        break;
      }
    }
    const uint64_t seed = opts.seed + static_cast<uint64_t>(i);
    msn::RunResult result = msn::FuzzOne(seed);
    ++completed;
    total_checks += result.report.checks;
    if (result.failed()) {
      return HandleFailure(result, opts);
    }
  }
  std::printf("fuzzed %d scenario(s) from seed %" PRIu64 ": %" PRIu64
              " oracle checks, 0 violations\n",
              completed, opts.seed, total_checks);
  return 0;
}
