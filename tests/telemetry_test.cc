// Unit tests for src/telemetry: counter/gauge semantics, the log-bucketed
// histogram's quantile error bound (validated against the exact nearest-rank
// Percentile() from src/util/stats.h), registry snapshot ordering, and
// sampler determinism (same seed => byte-identical exported series).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/node/ip_stack.h"
#include "src/sim/simulator.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/time_series.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace msn {
namespace {

// --- Counter / bound counters -------------------------------------------------

TEST(CounterTest, AddAndRead) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

// A component-shaped owner: plain counter fields, named once on
// construction and released on destruction.
struct CountingOwner {
  struct Counters {
    uint64_t requests_received = 0;
    uint64_t packets_tunneled = 0;
  };

  explicit CountingOwner(MetricsRegistry& registry) : metrics(registry) {
    metrics.BindCounter("ha.requests_received", &counters.requests_received);
    metrics.BindCounter("ha.packets_tunneled", &counters.packets_tunneled);
  }
  ~CountingOwner() { metrics.ReleaseCounters(counters); }

  MetricsRegistry& metrics;
  Counters counters;
};

TEST(BoundCounterTest, ReadsTheOwnersFieldInEveryExport) {
  MetricsRegistry registry;
  CountingOwner owner(registry);
  ++owner.counters.requests_received;
  owner.counters.packets_tunneled += 7;
  registry.GetGauge("ha.bindings").Set(1.0);

  const std::vector<MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[1].name, "ha.packets_tunneled");
  EXPECT_EQ(snap[1].type, MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snap[1].value, 7.0);
  EXPECT_EQ(snap[2].name, "ha.requests_received");
  EXPECT_DOUBLE_EQ(snap[2].value, 1.0);

  // Reads go through to the field: a later increment shows without a rebind.
  owner.counters.requests_received += 4;
  const std::map<std::string, double> scalars = registry.ScalarSnapshot("ha.");
  EXPECT_DOUBLE_EQ(scalars.at("ha.requests_received"), 5.0);
  EXPECT_DOUBLE_EQ(scalars.at("ha.packets_tunneled"), 7.0);

  std::vector<std::pair<std::string, double>> walked;
  registry.ForEachScalar("ha.", [&walked](std::string_view name, double value) {
    walked.emplace_back(std::string(name), value);
  });
  const std::vector<std::pair<std::string, double>> expected = {
      {"ha.bindings", 1.0}, {"ha.packets_tunneled", 7.0}, {"ha.requests_received", 5.0}};
  EXPECT_EQ(walked, expected);
  EXPECT_EQ(registry.ReadValue("ha.requests_received"), 5.0);
}

TEST(BoundCounterTest, ExportAfterTheOwnerIsGoneReadsItsFinalValue) {
  MetricsRegistry registry;
  auto owner = std::make_unique<CountingOwner>(registry);
  owner->counters.requests_received = 12;
  owner->counters.packets_tunneled = 3;
  const std::map<std::string, double> before = registry.ScalarSnapshot();
  owner.reset();  // Frees the fields; under ASan a stale read would fault.

  EXPECT_EQ(registry.ScalarSnapshot(), before);
  const std::vector<MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].type, MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snap[0].value, 3.0);
  EXPECT_DOUBLE_EQ(snap[1].value, 12.0);
}

TEST(BoundCounterDeathTest, SecondBindOfALiveNameDies) {
  MetricsRegistry registry;
  CountingOwner owner(registry);
  uint64_t other = 0;
  EXPECT_DEATH(registry.BindCounter("ha.requests_received", &other),
               "counter 'ha.requests_received' is already bound");
  EXPECT_DEATH((void)registry.GetCounter("ha.packets_tunneled"),
               "counter 'ha.packets_tunneled' is bound by its owner");
}

TEST(BoundCounterTest, IpStackWithoutARegistryStillCounts) {
  Simulator sim(1);
  IpStack stack(sim, "solo");  // No registry: nothing is named.
  stack.SendDatagram(Ipv4Address::Any(), Ipv4Address(99, 9, 9, 9), IpProto::kTcp, {1});
  sim.Run();
  EXPECT_EQ(stack.counters().datagrams_sent, 1u);
  EXPECT_EQ(stack.counters().drop_no_route, 1u);
}

// --- Gauge --------------------------------------------------------------------

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(7.0);
  g.Add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  EXPECT_FALSE(g.has_probe());
}

TEST(GaugeTest, ProbeReadsCallback) {
  double live = 3.0;
  MetricsRegistry registry;
  Gauge& g = registry.GetProbeGauge("dev.mh.eth0.queue_depth", [&] { return live; });
  EXPECT_TRUE(g.has_probe());
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  live = 11.0;
  EXPECT_DOUBLE_EQ(g.value(), 11.0);
  EXPECT_DOUBLE_EQ(*registry.ReadValue("dev.mh.eth0.queue_depth"), 11.0);
}

// --- MetricsRegistry ----------------------------------------------------------

TEST(MetricsRegistryTest, GetIsCreateOnFirstUseAndStable) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  a.Add(2);
  EXPECT_EQ(&registry.GetCounter("x"), &a);
  EXPECT_EQ(registry.GetCounter("x").value(), 2u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, TypeOfContainsAndReadValue) {
  MetricsRegistry registry;
  registry.GetCounter("c").Add(4);
  registry.GetGauge("g").Set(2.5);
  Histogram& h = registry.GetHistogram("h");
  h.Record(1.0);
  h.Record(2.0);

  EXPECT_TRUE(registry.Contains("c"));
  EXPECT_FALSE(registry.Contains("missing"));
  EXPECT_EQ(*registry.TypeOf("c"), MetricType::kCounter);
  EXPECT_EQ(*registry.TypeOf("g"), MetricType::kGauge);
  EXPECT_EQ(*registry.TypeOf("h"), MetricType::kHistogram);
  EXPECT_FALSE(registry.TypeOf("missing").has_value());

  // ReadValue: counter/gauge scalar, histogram observation count.
  EXPECT_DOUBLE_EQ(*registry.ReadValue("c"), 4.0);
  EXPECT_DOUBLE_EQ(*registry.ReadValue("g"), 2.5);
  EXPECT_DOUBLE_EQ(*registry.ReadValue("h"), 2.0);
  EXPECT_FALSE(registry.ReadValue("missing").has_value());

  EXPECT_EQ(registry.FindHistogram("h"), &h);
  EXPECT_EQ(registry.FindHistogram("c"), nullptr);

  registry.Remove("g");
  EXPECT_FALSE(registry.Contains("g"));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, NamesAndSnapshotAreNameSorted) {
  MetricsRegistry registry;
  // Registered deliberately out of order.
  registry.GetCounter("mh.retransmissions").Add(3);
  registry.GetHistogram("ha.processing_ms").Record(1.5);
  registry.GetGauge("ha.bindings").Set(2);
  registry.GetCounter("ip.mh.datagrams_sent").Add(9);

  const std::vector<std::string> names = registry.Names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "ha.bindings");
  EXPECT_EQ(names[1], "ha.processing_ms");
  EXPECT_EQ(names[2], "ip.mh.datagrams_sent");
  EXPECT_EQ(names[3], "mh.retransmissions");

  const std::vector<MetricSnapshot> snap = registry.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "ha.bindings");
  EXPECT_EQ(snap[0].type, MetricType::kGauge);
  EXPECT_DOUBLE_EQ(snap[0].value, 2.0);
  EXPECT_EQ(snap[1].type, MetricType::kHistogram);
  ASSERT_TRUE(snap[1].histogram.has_value());
  EXPECT_EQ(snap[1].histogram->count, 1u);
  EXPECT_DOUBLE_EQ(snap[1].histogram->min, 1.5);
  EXPECT_EQ(snap[3].name, "mh.retransmissions");
  EXPECT_DOUBLE_EQ(snap[3].value, 3.0);
}

TEST(MetricsRegistryTest, ScalarSnapshotFiltersByPrefix) {
  MetricsRegistry registry;
  registry.GetCounter("ip.mh.datagrams_sent").Add(9);
  registry.GetCounter("ip.ha.datagrams_sent").Add(4);
  registry.GetGauge("ha.bindings").Set(1);
  registry.GetHistogram("mh.handoff_ms").Record(3.0);

  const auto all = registry.ScalarSnapshot();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_DOUBLE_EQ(all.at("ip.mh.datagrams_sent"), 9.0);
  EXPECT_DOUBLE_EQ(all.at("mh.handoff_ms"), 1.0);  // Histogram => count.

  const auto ip_only = registry.ScalarSnapshot("ip.");
  ASSERT_EQ(ip_only.size(), 2u);
  EXPECT_EQ(ip_only.count("ha.bindings"), 0u);
  EXPECT_DOUBLE_EQ(ip_only.at("ip.ha.datagrams_sent"), 4.0);

  // The map form diffs cleanly: an untouched registry segment diffs empty.
  EXPECT_TRUE(registry.ScalarSnapshot("tcp.").empty());
}

// Collects ForEachScalar's output in visit order.
std::vector<std::pair<std::string, double>> VisitScalars(const MetricsRegistry& registry,
                                                         std::string_view prefix) {
  std::vector<std::pair<std::string, double>> out;
  registry.ForEachScalar(prefix, [&out](const std::string& name, double value) {
    out.emplace_back(name, value);
  });
  return out;
}

TEST(MetricsRegistryTest, ForEachScalarStaysInsideItsPrefix) {
  MetricsRegistry registry;
  registry.GetCounter("ip").Add(1);
  registry.GetCounter("ip.b.drop_ttl").Add(2);
  registry.GetCounter("ip.a.drop_ttl").Add(3);
  registry.GetCounter("ipx.a").Add(4);
  registry.GetCounter("ha.a").Add(5);
  registry.GetCounter("iq.a").Add(6);

  using Visited = std::vector<std::pair<std::string, double>>;
  EXPECT_EQ(VisitScalars(registry, "ip."),
            (Visited{{"ip.a.drop_ttl", 3.0}, {"ip.b.drop_ttl", 2.0}}));
  EXPECT_EQ(VisitScalars(registry, "ip").size(), 4u);  // "ip", "ip.*", "ipx.a".
  EXPECT_TRUE(VisitScalars(registry, "tcp.").empty());
  EXPECT_TRUE(VisitScalars(registry, "zz").empty());  // Past the last name.
  EXPECT_EQ(VisitScalars(registry, "").size(), registry.size());
}

TEST(MetricsRegistryTest, ForEachScalarReadsLiveEntries) {
  MetricsRegistry registry;
  registry.GetCounter("ip.mh.drop_ttl").Add(1);
  registry.GetGauge("ip.mh.queue").Set(2.5);
  Histogram& h = registry.GetHistogram("ip.mh.latency_ms");
  h.Record(1.0);
  h.Record(4.0);
  h.Record(9.0);
  registry.Remove("ip.mh.queue");

  using Visited = std::vector<std::pair<std::string, double>>;
  // The removed gauge is gone; the histogram yields its count.
  EXPECT_EQ(VisitScalars(registry, "ip."),
            (Visited{{"ip.mh.drop_ttl", 1.0}, {"ip.mh.latency_ms", 3.0}}));

  // A metric registered after an earlier walk shows up in the next one.
  registry.GetCounter("ip.late.drop_ttl").Add(7);
  EXPECT_EQ(VisitScalars(registry, "ip.").front(),
            (std::pair<std::string, double>{"ip.late.drop_ttl", 7.0}));
}

TEST(MetricsRegistryTest, ForEachScalarMatchesScalarSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("ip.mh.datagrams_sent").Add(9);
  registry.GetCounter("ip.ha.datagrams_sent").Add(4);
  registry.GetGauge("ha.bindings").Set(1);
  registry.GetHistogram("mh.handoff_ms").Record(3.0);
  registry.GetProbeGauge("ip.router.queue", [] { return 6.0; });
  using Visited = std::vector<std::pair<std::string, double>>;
  for (const std::string prefix : {"", "ip.", "ha.", "m", "tcp."}) {
    const std::map<std::string, double> snapshot = registry.ScalarSnapshot(prefix);
    EXPECT_EQ(Visited(snapshot.begin(), snapshot.end()), VisitScalars(registry, prefix))
        << "prefix '" << prefix << "'";
  }
}

TEST(MetricsRegistryTest, FindGaugeNeverCreates) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("ha.bindings");
  registry.GetCounter("ha.requests_received");

  EXPECT_EQ(registry.FindGauge("ha.bindings"), &g);
  EXPECT_EQ(registry.FindGauge("ha.requests_received"), nullptr);  // Wrong type.
  EXPECT_EQ(registry.FindGauge("ha.shard.0.bindings"), nullptr);   // Missing.
  EXPECT_FALSE(registry.Contains("ha.shard.0.bindings"));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, LookupsCountNameKeyedCallsOnly) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.lookups(), 0u);
  Counter& c = registry.GetCounter("ip.mh.drop_ttl");
  uint64_t drop_no_route = 0;
  registry.BindCounter("ip.mh.drop_no_route", &drop_no_route);
  registry.GetGauge("ha.bindings");
  registry.GetProbeGauge("dev.mh.eth0.queue_depth", [] { return 0.0; });
  registry.GetHistogram("mh.handoff_ms");
  EXPECT_EQ(registry.lookups(), 5u);

  (void)registry.Contains("ha.bindings");
  (void)registry.TypeOf("ha.bindings");
  (void)registry.ReadValue("ha.bindings");
  (void)registry.FindGauge("ha.bindings");
  (void)registry.FindHistogram("mh.handoff_ms");
  registry.Remove("dev.mh.eth0.queue_depth");
  EXPECT_EQ(registry.lookups(), 11u);

  // Recording through a kept reference and walking a prefix range are not
  // name lookups.
  c.Add(1);
  VisitScalars(registry, "ip.");
  (void)registry.Snapshot();
  EXPECT_EQ(registry.lookups(), 11u);
}

// --- Histogram ----------------------------------------------------------------

TEST(HistogramTest, ExactAggregatesAndEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(50), 0.0);  // Empty: everything reads zero.
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);

  h.Record(2.0);
  h.Record(8.0);
  h.Record(4.0);
  h.Record(-3.0);  // Negative counts as zero.
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);

  // p <= 0 is the exact min, p >= 100 the exact max.
  EXPECT_DOUBLE_EQ(h.Quantile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(100), 8.0);
  EXPECT_DOUBLE_EQ(h.Quantile(150), 8.0);
}

// The core guarantee: for every quantile, the histogram estimate is within
// `relative_error` of the exact nearest-rank sample value, across
// distributions with very different shapes. Percentile() (the summaries'
// exact statistic) interpolates between the two order statistics bracketing
// the same rank, so the estimate must also land inside that bracket inflated
// by (1 +/- e).
TEST(HistogramTest, QuantileWithinRelativeErrorOfExactPercentile) {
  const double kQuantiles[] = {1, 10, 25, 50, 75, 90, 95, 99, 99.9};
  struct Shape {
    const char* name;
    double relative_error;
  };
  const Shape shapes[] = {{"default", Histogram::kDefaultRelativeError},
                          {"coarse", 0.05}};

  for (const Shape& shape : shapes) {
    for (int dist = 0; dist < 3; ++dist) {
      Rng rng(1234 + static_cast<uint64_t>(dist));
      Histogram h(shape.relative_error);
      std::vector<double> samples;
      samples.reserve(20000);
      for (int i = 0; i < 20000; ++i) {
        double v = 0;
        switch (dist) {
          case 0:  // Uniform latencies, ms scale.
            v = rng.UniformDouble(0.05, 250.0);
            break;
          case 1:  // Exponential inter-arrivals: long tail.
            v = rng.Exponential(12.0);
            break;
          default:  // Lognormal-ish: heavy tail over several decades.
            v = std::exp(rng.Normal(1.0, 1.5));
            break;
        }
        h.Record(v);
        samples.push_back(v);
      }
      ASSERT_EQ(h.count(), samples.size());

      std::vector<double> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      const size_t n = sorted.size();
      const double e = shape.relative_error;
      for (double p : kQuantiles) {
        const double est = h.Quantile(p);
        // Guaranteed bound vs the exact nearest-rank sample.
        const size_t rank = static_cast<size_t>(std::max<uint64_t>(
            1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)))));
        const double exact = sorted[rank - 1];
        EXPECT_LE(std::abs(est - exact), e * exact + 1e-12)
            << "dist=" << dist << " shape=" << shape.name << " p=" << p
            << " exact=" << exact << " est=" << est;
        // Consistency with Percentile(): both the interpolated value and the
        // estimate fall in the [sorted[lo], sorted[lo+1]] bracket (the
        // estimate after inflating by the error bound).
        const double interp = Percentile(samples, p);
        const size_t lo =
            static_cast<size_t>(p / 100.0 * static_cast<double>(n - 1));
        const double bracket_lo = sorted[lo];
        const double bracket_hi = sorted[std::min(lo + 1, n - 1)];
        EXPECT_GE(interp, bracket_lo);
        EXPECT_LE(interp, bracket_hi);
        EXPECT_GE(est, bracket_lo * (1.0 - e) - 1e-12)
            << "dist=" << dist << " p=" << p;
        EXPECT_LE(est, bracket_hi * (1.0 + e) + 1e-12)
            << "dist=" << dist << " p=" << p;
      }
    }
  }
}

TEST(HistogramTest, MergesTinyValuesIntoZeroBucket) {
  Histogram h;
  h.Record(0.0);
  h.Record(1e-12);  // Below kMinTrackable: lands in the zero bucket.
  h.Record(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Quantile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(100), 5.0);
}

// --- FormatMetricValue --------------------------------------------------------

TEST(FormatMetricValueTest, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(FormatMetricValue(0.0), "0");
  EXPECT_EQ(FormatMetricValue(42.0), "42");
  EXPECT_EQ(FormatMetricValue(-7.0), "-7");
  EXPECT_EQ(FormatMetricValue(2.5), "2.5");
  // Non-finite readings must never corrupt a JSON export.
  EXPECT_EQ(FormatMetricValue(std::nan("")), "0");
}

// --- TimeSeriesSampler --------------------------------------------------------

// One seeded run of a small scenario: a periodic task makes random-sized
// steps on a counter and a gauge; the sampler snapshots both (plus a metric
// that only appears mid-run) every 50 ms for one simulated second.
std::string RunSampledScenario(uint64_t seed) {
  Simulator sim(seed);
  uint64_t events = 0;
  MetricsRegistry registry;
  registry.BindCounter("evt.count", &events);
  Gauge& depth = registry.GetGauge("evt.depth");

  TimeSeriesSampler sampler(sim, registry, Milliseconds(50));
  sampler.Watch("evt.count");
  sampler.Watch("evt.count");  // Duplicate watch is a no-op.
  sampler.Watch("evt.depth");
  sampler.Watch("late.metric");  // Samples as 0 until it exists.
  sampler.Start();

  PeriodicTask churn(sim, Milliseconds(10), [&] {
    events += sim.rng().UniformInt(uint64_t{0}, uint64_t{4});
    depth.Set(static_cast<double>(sim.rng().UniformInt(uint64_t{0}, uint64_t{20})));
  });
  churn.Start();
  sim.Schedule(Milliseconds(500),
               [&] { registry.GetCounter("late.metric").Add(17); });

  sim.RunFor(Seconds(1));
  sampler.Stop();
  return sampler.ToCsv();
}

TEST(TimeSeriesSamplerTest, SameSeedProducesByteIdenticalSeries) {
  const std::string a = RunSampledScenario(97);
  const std::string b = RunSampledScenario(97);
  EXPECT_EQ(a, b);
  // And the seed actually matters — a different seed changes the trajectory.
  EXPECT_NE(a, RunSampledScenario(98));
}

TEST(TimeSeriesSamplerTest, SamplesOnTheSimulatorClock) {
  Simulator sim(1);
  MetricsRegistry registry;
  registry.GetCounter("c").Add(5);

  TimeSeriesSampler sampler(sim, registry, Milliseconds(100));
  sampler.WatchAll();
  sampler.Start();
  sim.RunFor(Seconds(1));
  sampler.Stop();

  ASSERT_EQ(sampler.series().size(), 1u);
  const auto& points = sampler.series()[0].points;
  // Immediate sample at t=0 plus one per 100 ms tick.
  ASSERT_EQ(points.size(), 11u);
  EXPECT_EQ(points.front().t, Time::Zero());
  EXPECT_DOUBLE_EQ(points.front().value, 5.0);
  EXPECT_EQ(points.back().t, Time::Zero() + Seconds(1));

  const std::string csv = sampler.ToCsv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t_ms,c");
}

// --- BenchReport --------------------------------------------------------------

TEST(BenchReportTest, JsonIsDeterministicAndCarriesAllSections) {
  auto build = [] {
    BenchReport report("unit_test", "telemetry unit-test report");
    report.set_seed(7);
    report.AddParam("iterations", 3);
    report.AddSummary("latency_ms", "ms", std::vector<double>{1.0, 2.0, 3.0, 4.0});
    report.AddRow("cell", {{"lost", uint64_t{2}}, {"note", "a\"b"}});
    MetricsRegistry registry;
    registry.GetCounter("mh.recoveries").Add(2);
    registry.GetHistogram("ha.processing_ms").Record(0.25);
    report.AddMetrics(registry);
    return report.ToJson();
  };
  const std::string json = build();
  EXPECT_EQ(json, build());

  EXPECT_NE(json.find("\"schema\":\"msn-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"smoke\":"), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\":\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"mh.recoveries\""), std::string::npos);
  EXPECT_NE(json.find("\"ha.processing_ms\""), std::string::npos);
  // The summary's percentiles are exact nearest-rank over the samples.
  EXPECT_NE(json.find("\"p50\":2"), std::string::npos);
  // Escaping: the row note must survive as a\"b.
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
}

}  // namespace
}  // namespace msn
