// The unified benchmark export pipeline.
//
// Every bench binary builds one BenchReport and writes it as
// BENCH_<name>.json into $MSN_BENCH_JSON_DIR (default: the working
// directory). All nine benches share one schema, "msn-bench-v1":
//
//   {
//     "schema": "msn-bench-v1",
//     "bench": "addr_switch",            // short name; file is BENCH_<bench>.json
//     "title": "...",                    // one-line human description
//     "seed": 1000,                      // base RNG seed of the run
//     "smoke": false,                    // reduced-N CI smoke mode?
//     "params": {"build_type": "Release", "compiler": "GNU 13.2.0",
//                "iterations": 20, ...}, // scalar run parameters
//     "summaries": [                     // sample-set summaries (exact stats)
//       {"name": "switch_ms", "unit": "ms", "count": 20, "mean": ..,
//        "stddev": .., "min": .., "max": .., "p50": .., "p95": .., "p99": ..}
//     ],
//     "rows": [                          // per-cell/per-config result rows
//       {"label": "cold wired->wireless", "values": {"lost_mean": 4.8, ...}}
//     ],
//     "metrics": [                       // MetricsRegistry snapshot
//       {"name": "ha.requests_received", "type": "counter", "value": 12},
//       {"name": "ha.processing_ms", "type": "histogram", "count": 12,
//        "sum": .., "mean": .., "min": .., "max": .., "p50": .., "p95": ..,
//        "p99": ..}
//     ],
//     "series": [                        // TimeSeriesSampler output
//       {"metric": "tcp.goodput_bytes", "interval_ms": 1000,
//        "points": [[t_ms, value], ...]}
//     ]
//   }
//
// tools/validate_bench_json.py checks emitted files against this schema in
// the CI bench-smoke job. Percentiles in "summaries" are exact
// (util/stats.h Percentile over the retained samples); percentiles in
// "metrics" histograms carry the registry histogram's bounded relative
// error.
#ifndef MSN_SRC_TELEMETRY_EXPORT_H_
#define MSN_SRC_TELEMETRY_EXPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/time_series.h"
#include "src/util/stats.h"

namespace msn {

// True when $MSN_BENCH_SMOKE is set (and not "0"): benches shrink their
// iteration counts so the CI smoke job finishes quickly.
bool BenchSmokeMode();
// Convenience: `full` normally, `smoke` under MSN_BENCH_SMOKE.
int BenchIterations(int full, int smoke);
// $MSN_BENCH_JSON_DIR, or "." when unset.
std::string BenchJsonDir();

// A tagged scalar for params and row values.
class JsonScalar {
 public:
  JsonScalar() : kind_(Kind::kInt), int_(0) {}
  JsonScalar(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonScalar(int i) : kind_(Kind::kInt), int_(i) {}
  JsonScalar(int64_t i) : kind_(Kind::kInt), int_(i) {}
  JsonScalar(uint64_t u) : kind_(Kind::kInt), int_(static_cast<int64_t>(u)) {}
  JsonScalar(double d) : kind_(Kind::kDouble), double_(d) {}
  JsonScalar(const char* s) : kind_(Kind::kString), string_(s) {}
  JsonScalar(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  // Renders as a JSON value (quoted/escaped for strings).
  std::string ToJson() const;

 private:
  enum class Kind { kBool, kInt, kDouble, kString };
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
};

// Escapes a string for embedding in JSON (adds no surrounding quotes).
std::string JsonEscape(const std::string& s);

class BenchReport {
 public:
  BenchReport(std::string bench_name, std::string title);

  void set_seed(uint64_t seed) { seed_ = seed; }
  const std::string& bench_name() const { return bench_name_; }

  // Scalar run parameters; insertion order is preserved. Every report starts
  // with "build_type" and "compiler".
  void AddParam(const std::string& key, JsonScalar value);

  // Summary over a retained sample set: exact mean/stddev/min/max plus exact
  // p50/p95/p99 via Percentile().
  void AddSummary(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples);
  // Summary from running stats only (no retained samples, no percentiles).
  void AddSummary(const std::string& name, const std::string& unit, const RunningStats& stats);

  // One result row (a sweep cell, a configuration, a policy).
  void AddRow(const std::string& label,
              std::vector<std::pair<std::string, JsonScalar>> values);

  // Snapshots the registry into the "metrics" section (call once, at the
  // end of the run). Multiple calls append; names stay sorted per call.
  void AddMetrics(const MetricsRegistry& registry);

  // Copies the sampler's series into the "series" section.
  void AddSeries(const TimeSeriesSampler& sampler);

  std::string ToJson() const;

  // Writes BENCH_<bench>.json into BenchJsonDir(); returns the path, or ""
  // on I/O failure.
  std::string WriteFile() const;

 private:
  struct Summary {
    std::string name;
    std::string unit;
    uint64_t count = 0;
    double mean = 0, stddev = 0, min = 0, max = 0;
    bool has_percentiles = false;
    double p50 = 0, p95 = 0, p99 = 0;
  };
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, JsonScalar>> values;
  };
  struct SeriesOut {
    std::string metric;
    double interval_ms = 0;
    std::vector<std::pair<double, double>> points;  // (t_ms, value)
  };

  std::string bench_name_;
  std::string title_;
  uint64_t seed_ = 0;
  std::vector<std::pair<std::string, JsonScalar>> params_;
  std::vector<Summary> summaries_;
  std::vector<Row> rows_;
  std::vector<MetricSnapshot> metrics_;
  std::vector<SeriesOut> series_;
};

}  // namespace msn

#endif  // MSN_SRC_TELEMETRY_EXPORT_H_
