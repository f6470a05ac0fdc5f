#include "src/telemetry/export.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace msn {

bool BenchSmokeMode() {
  const char* v = std::getenv("MSN_BENCH_SMOKE");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

int BenchIterations(int full, int smoke) { return BenchSmokeMode() ? smoke : full; }

std::string BenchJsonDir() {
  const char* v = std::getenv("MSN_BENCH_JSON_DIR");
  return (v != nullptr && v[0] != '\0') ? v : ".";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// "escaped s". Strings here are built by appending: gcc 12's -Wrestrict
// misfires on `"literal" + std::string&&` once inlined.
std::string Quoted(const std::string& s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

}  // namespace

std::string JsonScalar::ToJson() const {
  switch (kind_) {
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
      return buf;
    }
    case Kind::kDouble:
      return FormatMetricValue(double_);
    case Kind::kString:
      return Quoted(string_);
  }
  return "null";
}

namespace {

// "key": value
std::string Field(const std::string& key, const std::string& rendered_value) {
  std::string out = Quoted(key);
  out += ':';
  out += rendered_value;
  return out;
}

std::string NumField(const std::string& key, double v) {
  return Field(key, FormatMetricValue(v));
}

std::string ObjectOf(const std::vector<std::pair<std::string, JsonScalar>>& kv) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : kv) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += Field(k, v.ToJson());
  }
  out += '}';
  return out;
}

}  // namespace

BenchReport::BenchReport(std::string bench_name, std::string title)
    : bench_name_(std::move(bench_name)), title_(std::move(title)) {
  // Wall-clock results compare only across like builds (both set by CMake).
  AddParam("build_type", MSN_BUILD_TYPE);
  AddParam("compiler", MSN_COMPILER);
}

void BenchReport::AddParam(const std::string& key, JsonScalar value) {
  params_.emplace_back(key, std::move(value));
}

void BenchReport::AddSummary(const std::string& name, const std::string& unit,
                             const std::vector<double>& samples) {
  Summary s;
  s.name = name;
  s.unit = unit;
  RunningStats stats;
  for (double v : samples) {
    stats.Add(v);
  }
  s.count = static_cast<uint64_t>(stats.count());
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.min = stats.min();
  s.max = stats.max();
  s.has_percentiles = !samples.empty();
  if (s.has_percentiles) {
    s.p50 = Percentile(samples, 50);
    s.p95 = Percentile(samples, 95);
    s.p99 = Percentile(samples, 99);
  }
  summaries_.push_back(std::move(s));
}

void BenchReport::AddSummary(const std::string& name, const std::string& unit,
                             const RunningStats& stats) {
  Summary s;
  s.name = name;
  s.unit = unit;
  s.count = static_cast<uint64_t>(stats.count());
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.min = stats.min();
  s.max = stats.max();
  summaries_.push_back(std::move(s));
}

void BenchReport::AddRow(const std::string& label,
                         std::vector<std::pair<std::string, JsonScalar>> values) {
  rows_.push_back(Row{label, std::move(values)});
}

void BenchReport::AddMetrics(const MetricsRegistry& registry) {
  for (MetricSnapshot& s : registry.Snapshot()) {
    metrics_.push_back(std::move(s));
  }
}

void BenchReport::AddSeries(const TimeSeriesSampler& sampler) {
  for (const TimeSeriesSampler::Series& s : sampler.series()) {
    SeriesOut out;
    out.metric = s.metric;
    out.interval_ms = sampler.interval().ToMillisF();
    out.points.reserve(s.points.size());
    for (const TimeSeriesSampler::Point& p : s.points) {
      out.points.emplace_back(p.t.ToMillisF(), p.value);
    }
    series_.push_back(std::move(out));
  }
}

std::string BenchReport::ToJson() const {
  std::string out = "{\n";
  for (const std::string& field :
       {Field("schema", "\"msn-bench-v1\""), Field("bench", Quoted(bench_name_)),
        Field("title", Quoted(title_)), NumField("seed", static_cast<double>(seed_)),
        Field("smoke", BenchSmokeMode() ? "true" : "false"), Field("params", ObjectOf(params_))}) {
    out += "  ";
    out += field;
    out += ",\n";
  }

  out += "  \"summaries\":[";
  for (size_t i = 0; i < summaries_.size(); ++i) {
    const Summary& s = summaries_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    out += Field("name", Quoted(s.name)) + "," + Field("unit", Quoted(s.unit)) + "," +
           NumField("count", static_cast<double>(s.count)) + "," + NumField("mean", s.mean) +
           "," + NumField("stddev", s.stddev) + "," + NumField("min", s.min) + "," +
           NumField("max", s.max);
    if (s.has_percentiles) {
      out += ',';
      out += NumField("p50", s.p50) + "," + NumField("p95", s.p95) + "," +
             NumField("p99", s.p99);
    }
    out += "}";
  }
  out += summaries_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"rows\":[";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    out += Field("label", Quoted(r.label)) + "," + Field("values", ObjectOf(r.values)) + "}";
  }
  out += rows_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"metrics\":[";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const MetricSnapshot& m = metrics_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    out += Field("name", Quoted(m.name)) + "," + Field("type", Quoted(MetricTypeName(m.type)));
    if (m.histogram.has_value()) {
      const HistogramSnapshot& h = *m.histogram;
      out += ',';
      out += NumField("count", static_cast<double>(h.count)) + "," +
             NumField("sum", h.sum) + "," + NumField("mean", h.mean) + "," +
             NumField("min", h.min) + "," + NumField("max", h.max) + "," +
             NumField("p50", h.p50) + "," + NumField("p95", h.p95) + "," +
             NumField("p99", h.p99);
    } else {
      out += ',';
      out += NumField("value", m.value);
    }
    out += "}";
  }
  out += metrics_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"series\":[";
  for (size_t i = 0; i < series_.size(); ++i) {
    const SeriesOut& s = series_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    out += Field("metric", Quoted(s.metric)) + "," + NumField("interval_ms", s.interval_ms) +
           ",\"points\":[";
    for (size_t j = 0; j < s.points.size(); ++j) {
      if (j > 0) {
        out += ',';
      }
      out += '[';
      out += FormatMetricValue(s.points[j].first) + "," +
             FormatMetricValue(s.points[j].second) + "]";
    }
    out += "]}";
  }
  out += series_.empty() ? "]\n" : "\n  ]\n";

  out += "}\n";
  return out;
}

std::string BenchReport::WriteFile() const {
  const std::string path = BenchJsonDir() + "/BENCH_" + bench_name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return "";
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    std::fprintf(stderr, "BenchReport: short write to %s\n", path.c_str());
    return "";
  }
  return path;
}

}  // namespace msn
