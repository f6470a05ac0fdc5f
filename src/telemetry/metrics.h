// The metrics registry: named counters, gauges, and log-bucketed latency
// histograms.
//
// Every layer of the system (home agent, mobile host, IP stacks, media,
// fault injectors) names its counters here so that one registry holds a
// complete, uniformly named picture of a run — the observability substrate
// the benchmark exporter (export.h) and the time-series sampler
// (time_series.h) read from.
//
// Naming convention: dot-separated, component first, instance next, field
// last — "ha.requests_received", "ip.mh.drop_no_route",
// "link.net8.frames_dropped", "dev.mh.eth0.queue_depth". Iteration order is
// always name-sorted, so exports are deterministic.
//
// Histograms use multiplicative (log) buckets with a configurable relative
// error bound: an observation x lands in bucket ceil(log_gamma(x)) with
// gamma = (1+e)/(1-e), and the bucket's representative value is off from any
// sample it holds by at most a factor of (1±e). Quantile estimates therefore
// carry a *guaranteed* relative error bound against the exact nearest-rank
// percentile (validated in tests/telemetry_test.cc against Percentile()).
#ifndef MSN_SRC_TELEMETRY_METRICS_H_
#define MSN_SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace msn {

enum class MetricType { kCounter, kGauge, kHistogram };
const char* MetricTypeName(MetricType type);

// Deterministic, locale-independent number rendering shared by every
// exporter: integers print without a decimal point ("42"), everything else
// as shortest-ish round-trippable decimal ("7.39", "0.00123"). Identical
// inputs always produce identical bytes, which is what makes exported series
// diffable.
std::string FormatMetricValue(double value);

// Monotonically increasing event count the registry stores itself, for a
// name no component owns (GetCounter).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  uint64_t value_ = 0;
};

// A value that can go up and down (binding count, queue depth). A gauge may
// instead carry a probe callback, in which case reads evaluate the probe —
// handy for sampling a quantity the owner never pushes (bytes received so
// far, live queue depth). Probe owners must outlive every read.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  void SetProbe(std::function<double()> probe) { probe_ = std::move(probe); }
  bool has_probe() const { return static_cast<bool>(probe_); }
  double value() const { return probe_ ? probe_() : value_; }

 private:
  double value_ = 0.0;
  std::function<double()> probe_;
};

// Log-bucketed histogram for non-negative observations (latencies in ms,
// sizes in bytes). Quantile estimates are within `relative_error` of the
// exact nearest-rank sample value; min/max/sum/count are exact.
class Histogram {
 public:
  static constexpr double kDefaultRelativeError = 0.01;
  // Observations at or below this land in the zero bucket (estimate 0).
  static constexpr double kMinTrackable = 1e-9;

  explicit Histogram(double relative_error = kDefaultRelativeError);

  // Records one observation. Negative values count as zero.
  void Record(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double relative_error() const { return relative_error_; }
  size_t bucket_count() const { return buckets_.size() + (zero_count_ > 0 ? 1 : 0); }

  // Nearest-rank quantile estimate; `p` in [0, 100]. p <= 0 returns the exact
  // min, p >= 100 the exact max; estimates are clamped into [min, max].
  [[nodiscard]] double Quantile(double p) const;

 private:
  int32_t BucketIndex(double value) const;
  double BucketEstimate(int32_t index) const;

  double relative_error_;
  double gamma_;
  double log_gamma_;
  uint64_t zero_count_ = 0;
  std::map<int32_t, uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// One metric's exported state. For counters and gauges `value` is the scalar
// reading; for histograms it is the observation count and `histogram` holds
// the distribution.
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  double value = 0.0;
  std::optional<HistogramSnapshot> histogram;
};

// Owns metrics by name. Get* calls create on first use and return the same
// instance thereafter; requesting an existing name as a different type is a
// programming error and aborts. Not thread-safe (the simulator is
// single-threaded by design).
//
// A component's counters are plain uint64_t fields of its own Counters
// struct: it names each field once with BindCounter in its constructor and
// calls ReleaseCounters in its destructor. Reads of a bound name read the
// field in place; after the release they read its final value, so an export
// taken once the owner is gone reads what it read before.
//
// Name-keyed calls (Get*, Find*, ReadValue, Contains, TypeOf, Remove) are for
// set-up and export. A component that records or reads on a periodic or
// per-packet path resolves each name once and keeps the returned reference
// (DESIGN.md §10); lookups() counts the name-keyed calls so tests can hold
// hot paths to that.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Dies when a component has bound `name`.
  Counter& GetCounter(const std::string& name);
  // Names `*field`, a counter the caller owns and keeps at a fixed address
  // until ReleaseCounters. Dies when another field is bound to `name`. A
  // name whose owner was released (a component re-created under a live
  // registry, as auth_test and ha_admission_test do with the home agent)
  // continues from the released value: it is added into `*field`.
  void BindCounter(const std::string& name, uint64_t* field);
  // Ends the binding of every field of `counters`, keeping each final value.
  template <typename Counters>
  void ReleaseCounters(const Counters& counters) {
    Release(&counters, sizeof(Counters));
  }
  Gauge& GetGauge(const std::string& name);
  // Creates (or rebinds) a gauge whose reads call `probe`.
  Gauge& GetProbeGauge(const std::string& name, std::function<double()> probe);
  Histogram& GetHistogram(const std::string& name,
                          double relative_error = Histogram::kDefaultRelativeError);

  bool Contains(const std::string& name) const;
  [[nodiscard]] std::optional<MetricType> TypeOf(const std::string& name) const;
  // Scalar reading used by the sampler: counter/gauge value; histogram count.
  [[nodiscard]] std::optional<double> ReadValue(const std::string& name) const;
  // Never create: null when `name` is missing or registered as another type.
  [[nodiscard]] const Gauge* FindGauge(const std::string& name) const;
  [[nodiscard]] const Histogram* FindHistogram(const std::string& name) const;

  // Calls visit(name, scalar) for every metric whose name starts with
  // `prefix`, in name order, reading each entry in place. The scalar is the
  // counter/gauge value or the histogram count, as ReadValue gives.
  template <typename Visit>
  void ForEachScalar(std::string_view prefix, Visit&& visit) const {
    for (auto it = metrics_.lower_bound(prefix);
         it != metrics_.end() && it->first.starts_with(prefix); ++it) {
      visit(it->first, ScalarValue(it->second));
    }
  }

  size_t size() const { return metrics_.size(); }
  // Name-sorted.
  std::vector<std::string> Names() const;
  std::vector<MetricSnapshot> Snapshot() const;

  // Every metric under `prefix` ("" = all) as a name-sorted scalar map
  // (counter/gauge value; histogram count), for diffing two points of a run.
  [[nodiscard]] std::map<std::string, double> ScalarSnapshot(
      const std::string& prefix = std::string()) const;

  // Drops a metric (used when a short-lived probe owner unbinds itself).
  void Remove(const std::string& name) {
    ++lookups_;
    metrics_.erase(name);
  }

  // Name-keyed calls made so far (see the class comment); a ForEachScalar
  // walk does not count.
  uint64_t lookups() const { return lookups_; }

 private:
  struct Entry {
    MetricType type = MetricType::kCounter;
    // A counter reads *counter: an owner's bound field, or `owned` (a
    // GetCounter name, or a released field's final value).
    const uint64_t* counter = nullptr;
    Counter owned;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  // std::map so iteration (and therefore every export) is name-sorted;
  // std::less<> so a string_view prefix finds its range without a copy.
  using Map = std::map<std::string, Entry, std::less<>>;

  Entry& GetEntry(const std::string& name, MetricType type);
  void Release(const void* first, size_t size);
  Map::const_iterator Find(const std::string& name) const;
  static double ScalarValue(const Entry& e);

  Map metrics_;
  mutable uint64_t lookups_ = 0;
};

}  // namespace msn

#endif  // MSN_SRC_TELEMETRY_METRICS_H_
