#pragma once
// phes::obs — the unified observability layer: named counters, gauges,
// and fixed-bucket latency histograms behind a mutex-sharded
// MetricsRegistry.
//
// Design constraints (this feeds every layer of the serving stack):
//   - Allocation-free hot path: components look handles up ONCE
//     (registration takes a shard mutex) and then mutate plain atomics;
//     observe()/add() never allocate, never lock.
//   - Snapshot: snapshot() produces a plain-data MetricsSnapshot that
//     serializes to JSON and to the Prometheus text exposition.
//   - Kill switch: set_enabled(false) turns every instrument created by
//     the registry into a relaxed-load-and-return no-op, so the
//     overhead of observability can be measured (bench_metrics_overhead)
//     and disabled outright.  The in-process stats views
//     (JobQueue::stats, SessionPool::stats) read registry instruments,
//     so disabling the registry also freezes them.  Compiling with
//     -DPHES_DISABLE_METRICS removes the instrument bodies entirely
//     (perf builds; `metrics` and those views then report zeros).
//
// Ownership: instruments are owned by their registry and live as long
// as it does; handles returned by counter()/gauge()/histogram() are
// stable for the registry's lifetime.  The JobServer owns a registry
// per instance, so tests running several servers in one process see
// isolated counters.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "phes/util/sync.hpp"

namespace phes::util {
class JsonValue;
}  // namespace phes::util

namespace phes::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  explicit Counter(const std::atomic<bool>* enabled) noexcept
      : enabled_(enabled) {}

  void add(std::uint64_t n = 1) noexcept {
#ifndef PHES_DISABLE_METRICS
    if (enabled_ != nullptr && !enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
  const std::atomic<bool>* enabled_ = nullptr;  ///< registry kill switch
};

/// Instantaneous level (queue depth, open connections); may go down.
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(const std::atomic<bool>* enabled) noexcept
      : enabled_(enabled) {}

  void set(std::int64_t v) noexcept {
#ifndef PHES_DISABLE_METRICS
    if (enabled_ != nullptr && !enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void add(std::int64_t d = 1) noexcept {
#ifndef PHES_DISABLE_METRICS
    if (enabled_ != nullptr && !enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    value_.fetch_add(d, std::memory_order_relaxed);
#else
    (void)d;
#endif
  }
  void sub(std::int64_t d = 1) noexcept { add(-d); }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  const std::atomic<bool>* enabled_ = nullptr;
};

/// Plain-data view of a Histogram.  `counts` has bounds.size() + 1
/// entries: counts[i] is the number of observations with value <=
/// bounds[i] (and > bounds[i-1]); the last entry is the +Inf overflow
/// bucket.  Buckets are NOT cumulative here — to_prometheus()
/// accumulates them into the `le` convention.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Fixed-bucket histogram: upper bounds are chosen at registration and
/// never change, so observe() is a branch-free-ish binary search plus
/// three relaxed atomic updates — no locks, no allocation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds,
                     const std::atomic<bool>* enabled = nullptr);

  void observe(double value) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

  /// 100 µs .. 60 s, roughly logarithmic — wide enough to cover an
  /// inline ping and a multi-second enforcement job in one layout.
  [[nodiscard]] static std::vector<double> default_latency_bounds();

 private:
  std::vector<double> bounds_;  ///< ascending, strictly increasing
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< size+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  const std::atomic<bool>* enabled_ = nullptr;
};

/// Everything a registry knows, as plain data to serialize.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// One-line JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {"name": {"bounds": [..], "counts": [..],
  ///                            "count": N, "sum": S}, ...}}
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json (the client's --prom path and the coordinator's
  /// aggregation path both parse with util::JsonValue).
  [[nodiscard]] static MetricsSnapshot from_json(const util::JsonValue& v);

  /// Prometheus text exposition format (# TYPE comments, cumulative
  /// `le` buckets, _sum/_count series).
  [[nodiscard]] std::string to_prometheus() const;
};

/// Named-instrument registry.  Registration (name -> handle) is
/// sharded by name hash so concurrent first-touch registration from
/// many threads does not serialize on one mutex; lookups of an
/// existing name take only that shard's lock.  Mutating a handle takes
/// no lock at all.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create.  The returned reference is stable for the
  /// registry's lifetime.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// Histogram with the default latency bucket layout.
  [[nodiscard]] Histogram& histogram(const std::string& name);
  /// Histogram with explicit upper bounds (ascending).  If the name
  /// already exists the existing instrument is returned regardless of
  /// `bounds` — first registration wins.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Kill switch: false turns every instrument created by this
  /// registry into a no-op (one relaxed load on the hot path).
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 8;

  struct Shard {
    mutable util::Mutex mutex;
    /// Map structure is what the mutex protects; the instruments
    /// themselves are atomics, mutated without it.
    std::map<std::string, std::unique_ptr<Counter>> counters
        PHES_GUARDED_BY(mutex);
    std::map<std::string, std::unique_ptr<Gauge>> gauges
        PHES_GUARDED_BY(mutex);
    std::map<std::string, std::unique_ptr<Histogram>> histograms
        PHES_GUARDED_BY(mutex);
  };

  [[nodiscard]] Shard& shard_for(const std::string& name) const;

  std::atomic<bool> enabled_{true};
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace phes::obs
