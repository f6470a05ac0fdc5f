#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "src/util/assert.h"

namespace msn {

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

std::string FormatMetricValue(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::abs(value) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

Histogram::Histogram(double relative_error) {
  // Clamp into a sane range: gamma must stay > 1 and the index range finite.
  relative_error_ = std::min(std::max(relative_error, 1e-4), 0.5);
  gamma_ = (1.0 + relative_error_) / (1.0 - relative_error_);
  log_gamma_ = std::log(gamma_);
}

int32_t Histogram::BucketIndex(double value) const {
  return static_cast<int32_t>(std::ceil(std::log(value) / log_gamma_));
}

double Histogram::BucketEstimate(int32_t index) const {
  // Bucket i covers (gamma^(i-1), gamma^i]; the harmonic midpoint
  // 2*gamma^i/(gamma+1) is within a factor (1 +/- e) of every point inside.
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void Histogram::Record(double value) {
  const double v = value < 0.0 ? 0.0 : value;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (v <= kMinTrackable) {
    ++zero_count_;
  } else {
    ++buckets_[BucketIndex(v)];
  }
}

double Histogram::Quantile(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  if (p <= 0.0) {
    return min_;
  }
  if (p >= 100.0) {
    return max_;
  }
  // Nearest-rank: the smallest sample whose cumulative count reaches rank.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  if (rank <= zero_count_) {
    return std::max(0.0, min_);
  }
  uint64_t cumulative = zero_count_;
  for (const auto& [index, bucket_count] : buckets_) {
    cumulative += bucket_count;
    if (cumulative >= rank) {
      return std::min(std::max(BucketEstimate(index), min_), max_);
    }
  }
  return max_;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  Entry& e = GetEntry(name, MetricType::kCounter);
  if (e.counter == nullptr) {
    e.counter = &e.owned.value_;
  }
  MSN_CHECK(e.counter == &e.owned.value_) << "counter '" << name << "' is bound by its owner";
  return e.owned;
}

void MetricsRegistry::BindCounter(const std::string& name, uint64_t* field) {
  Entry& e = GetEntry(name, MetricType::kCounter);
  MSN_CHECK(e.counter == nullptr || e.counter == &e.owned.value_)
      << "counter '" << name << "' is already bound";
  *field += e.owned.value_;
  e.counter = field;
}

void MetricsRegistry::Release(const void* first, size_t size) {
  const auto begin = reinterpret_cast<std::uintptr_t>(first);
  for (auto& [name, e] : metrics_) {
    const auto at = reinterpret_cast<std::uintptr_t>(e.counter);
    if (e.type == MetricType::kCounter && at >= begin && at < begin + size) {
      e.owned.value_ = *e.counter;
      e.counter = &e.owned.value_;
    }
  }
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  Entry& e = GetEntry(name, MetricType::kGauge);
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Gauge& MetricsRegistry::GetProbeGauge(const std::string& name, std::function<double()> probe) {
  Gauge& g = GetGauge(name);
  g.SetProbe(std::move(probe));
  return g;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, double relative_error) {
  Entry& e = GetEntry(name, MetricType::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(relative_error);
  }
  return *e.histogram;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(const std::string& name, MetricType type) {
  ++lookups_;
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.type = type;
  } else if (it->second.type != type) {
    std::fprintf(stderr, "MetricsRegistry: metric '%s' requested as %s but registered as %s\n",
                 name.c_str(), MetricTypeName(type), MetricTypeName(it->second.type));
    std::abort();
  }
  return it->second;
}

MetricsRegistry::Map::const_iterator MetricsRegistry::Find(const std::string& name) const {
  ++lookups_;
  return metrics_.find(name);
}

double MetricsRegistry::ScalarValue(const Entry& e) {
  // Every entry holds the object its Get* call created.
  switch (e.type) {
    case MetricType::kCounter:
      return static_cast<double>(*e.counter);
    case MetricType::kGauge:
      return e.gauge->value();
    case MetricType::kHistogram:
      return static_cast<double>(e.histogram->count());
  }
  return 0.0;
}

bool MetricsRegistry::Contains(const std::string& name) const {
  return Find(name) != metrics_.end();
}

std::optional<MetricType> MetricsRegistry::TypeOf(const std::string& name) const {
  auto it = Find(name);
  if (it == metrics_.end()) {
    return std::nullopt;
  }
  return it->second.type;
}

std::optional<double> MetricsRegistry::ReadValue(const std::string& name) const {
  auto it = Find(name);
  if (it == metrics_.end()) {
    return std::nullopt;
  }
  return ScalarValue(it->second);
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = Find(name);
  if (it == metrics_.end() || it->second.type != MetricType::kGauge) {
    return nullptr;
  }
  return it->second.gauge.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = Find(name);
  if (it == metrics_.end() || it->second.type != MetricType::kHistogram) {
    return nullptr;
  }
  return it->second.histogram.get();
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    names.push_back(name);
  }
  return names;
}

std::map<std::string, double> MetricsRegistry::ScalarSnapshot(const std::string& prefix) const {
  std::map<std::string, double> out;
  ForEachScalar(prefix, [&out](const std::string& name, double value) {
    out.emplace_hint(out.end(), name, value);
  });
  return out;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSnapshot s;
    s.name = name;
    s.type = entry.type;
    s.value = ScalarValue(entry);
    if (entry.type == MetricType::kHistogram) {
      const Histogram& h = *entry.histogram;
      HistogramSnapshot hs;
      hs.count = h.count();
      hs.sum = h.sum();
      hs.mean = h.mean();
      hs.min = h.min();
      hs.max = h.max();
      hs.p50 = h.Quantile(50);
      hs.p95 = h.Quantile(95);
      hs.p99 = h.Quantile(99);
      s.histogram = hs;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace msn
