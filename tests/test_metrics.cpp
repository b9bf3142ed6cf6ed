// phes::obs unit coverage: histogram bucket semantics and merge,
// registry snapshot consistency under concurrent writers (the test the
// CI TSAN job leans on), JSON round-trips through util::JsonValue, the
// Prometheus text conversion, and the registry kill switch.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "phes/util/json.hpp"
#include "phes/util/metrics.hpp"

namespace phes {
namespace {

using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  obs::Counter& c = registry.counter("c");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Find-or-create: same name, same instrument.
  EXPECT_EQ(&registry.counter("c"), &c);

  obs::Gauge& g = registry.gauge("g");
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  g.set(-4);
  EXPECT_EQ(g.value(), -4);
}

TEST(Metrics, HistogramBucketBoundaries) {
  MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("h", {1.0, 2.0, 5.0});

  h.observe(0.5);  // <= 1.0
  h.observe(1.0);  // == bound: inclusive, still the 1.0 bucket
  h.observe(1.5);  // (1.0, 2.0]
  h.observe(5.0);  // == last bound
  h.observe(7.0);  // overflow (+Inf)

  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.bounds, (std::vector<double>{1.0, 2.0, 5.0}));
  ASSERT_EQ(s.counts.size(), 4u);  // bounds + overflow
  EXPECT_EQ(s.counts[0], 2u);      // 0.5 and the inclusive 1.0
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 5.0 + 7.0);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  MetricsRegistry registry;
  EXPECT_THROW(
      { (void)registry.histogram("bad", {1.0, 1.0}); },
      std::exception);
  EXPECT_THROW(
      { (void)registry.histogram("bad2", {2.0, 1.0}); },
      std::exception);
  EXPECT_THROW({ (void)registry.histogram("bad3", {}); }, std::exception);
}

TEST(Metrics, HistogramFirstRegistrationWins) {
  MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("h", {1.0, 2.0});
  obs::Histogram& again = registry.histogram("h", {10.0, 20.0, 30.0});
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Metrics, ConcurrentWritersSnapshotConsistency) {
  // Hammer one registry from several threads (registration first-touch
  // included) while the main thread snapshots concurrently; the final
  // snapshot must account for every operation.  Run under TSAN in CI.
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      obs::Counter& mine =
          registry.counter("per_thread_" + std::to_string(t));
      obs::Counter& shared = registry.counter("shared_total");
      obs::Histogram& hist = registry.histogram("latency", {0.5, 1.5});
      obs::Gauge& gauge = registry.gauge("depth");
      for (int i = 0; i < kIters; ++i) {
        mine.add();
        shared.add();
        hist.observe(i % 3 == 0 ? 0.25 : 1.0);
        gauge.add(1);
        gauge.sub(1);
      }
    });
  }
  // Concurrent readers: snapshots taken mid-run must be well-formed
  // (monotone counts, counts summing to the histogram total).
  for (int probe = 0; probe < 50; ++probe) {
    const MetricsSnapshot s = registry.snapshot();
    for (const auto& [name, hist] : s.histograms) {
      std::uint64_t bucket_total = 0;
      for (const std::uint64_t c : hist.counts) bucket_total += c;
      EXPECT_LE(bucket_total, static_cast<std::uint64_t>(kThreads) * kIters)
          << name;
    }
  }
  for (auto& w : writers) w.join();

  const MetricsSnapshot s = registry.snapshot();
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(s.counters.at("shared_total"), total);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(s.counters.at("per_thread_" + std::to_string(t)),
              static_cast<std::uint64_t>(kIters));
  }
  EXPECT_EQ(s.gauges.at("depth"), 0);
  const HistogramSnapshot& hist = s.histograms.at("latency");
  EXPECT_EQ(hist.count, total);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : hist.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, total);
}

TEST(Metrics, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.counter("requests_total").add(17);
  registry.gauge("queue_depth").set(-3);
  obs::Histogram& h = registry.histogram("wait_seconds", {0.001, 0.1, 10.0});
  h.observe(0.0005);
  h.observe(0.05);
  h.observe(99.0);

  const MetricsSnapshot original = registry.snapshot();
  const std::string json = original.to_json();
  const MetricsSnapshot parsed =
      MetricsSnapshot::from_json(util::JsonValue::parse(json));

  EXPECT_EQ(parsed.counters, original.counters);
  EXPECT_EQ(parsed.gauges, original.gauges);
  ASSERT_EQ(parsed.histograms.size(), original.histograms.size());
  const HistogramSnapshot& ph = parsed.histograms.at("wait_seconds");
  const HistogramSnapshot& oh = original.histograms.at("wait_seconds");
  EXPECT_EQ(ph.bounds, oh.bounds);
  EXPECT_EQ(ph.counts, oh.counts);
  EXPECT_EQ(ph.count, oh.count);
  EXPECT_DOUBLE_EQ(ph.sum, oh.sum);
  // Serialize-parse-serialize is byte-stable (the coordinator can
  // re-ship a snapshot it parsed without introducing drift).
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("phes_requests_total").add(5);
  registry.gauge("phes_queue_depth").set(2);
  obs::Histogram& h = registry.histogram("phes_wait_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  const std::string text = registry.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE phes_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("phes_requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE phes_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("phes_queue_depth 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE phes_wait_seconds histogram"),
            std::string::npos);
  // Buckets are CUMULATIVE in the exposition (le convention).
  EXPECT_NE(text.find("phes_wait_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("phes_wait_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("phes_wait_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("phes_wait_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("phes_wait_seconds_sum"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Metrics, KillSwitchFreezesInstruments) {
  MetricsRegistry registry;
  obs::Counter& c = registry.counter("c");
  obs::Gauge& g = registry.gauge("g");
  obs::Histogram& h = registry.histogram("h", {1.0});
  c.add();
  g.set(5);
  h.observe(0.5);

  registry.set_enabled(false);
  EXPECT_FALSE(registry.enabled());
  c.add(100);
  g.set(99);
  h.observe(0.5);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(h.snapshot().count, 1u);

  registry.set_enabled(true);
  c.add();
  EXPECT_EQ(c.value(), 2u);
}

}  // namespace
}  // namespace phes
