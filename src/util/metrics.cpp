#include "phes/util/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "phes/util/json.hpp"

namespace phes::obs {

namespace {

/// Locale-independent, round-trippable double formatting (snapshot
/// serialization must survive a JSON round trip bit-for-bit enough for
/// byte-stable re-serialization).
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Shorter form for Prometheus `le` labels (bucket bounds are
/// human-chosen round numbers; %g keeps them readable).
std::string fmt_bound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string json_key(const std::string& name) {
  // Metric names are [a-zA-Z0-9_:] by convention; no escaping needed,
  // but quote defensively anyway.
  std::string out = "\"";
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

// ---- Histogram --------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds,
                     const std::atomic<bool>* enabled)
    : bounds_(std::move(bounds)), enabled_(enabled) {
  if (bounds_.empty() || !std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::runtime_error(
        "Histogram: bucket bounds must be non-empty and strictly "
        "increasing");
  }
  counts_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double value) noexcept {
#ifndef PHES_DISABLE_METRICS
  if (enabled_ != nullptr && !enabled_->load(std::memory_order_relaxed)) {
    return;
  }
  // Bucket i holds observations with value <= bounds[i] (the Prometheus
  // `le` convention); lower_bound finds the first bound >= value.
  const std::size_t index = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
#else
  (void)value;
#endif
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

std::vector<double> Histogram::default_latency_bounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
          0.1,  0.25,   0.5,  1.0,  2.5,    5.0,  10.0, 30.0,   60.0};
}

// ---- MetricsSnapshot --------------------------------------------------

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ", ") << json_key(name) << ": " << value;
    first = false;
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "" : ", ") << json_key(name) << ": " << value;
    first = false;
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    os << (first ? "" : ", ") << json_key(name) << ": {\"bounds\": [";
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      os << (i == 0 ? "" : ", ") << fmt_double(hist.bounds[i]);
    }
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      os << (i == 0 ? "" : ", ") << hist.counts[i];
    }
    os << "], \"count\": " << hist.count
       << ", \"sum\": " << fmt_double(hist.sum) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

MetricsSnapshot MetricsSnapshot::from_json(const util::JsonValue& v) {
  MetricsSnapshot s;
  if (const util::JsonValue* counters = v.find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      s.counters[name] = value.as_uint();
    }
  }
  if (const util::JsonValue* gauges = v.find("gauges")) {
    for (const auto& [name, value] : gauges->members()) {
      s.gauges[name] = static_cast<std::int64_t>(value.as_number());
    }
  }
  if (const util::JsonValue* histograms = v.find("histograms")) {
    for (const auto& [name, value] : histograms->members()) {
      HistogramSnapshot h;
      if (const util::JsonValue* bounds = value.find("bounds")) {
        for (const auto& b : bounds->items()) {
          h.bounds.push_back(b.as_number());
        }
      }
      if (const util::JsonValue* counts = value.find("counts")) {
        for (const auto& c : counts->items()) {
          h.counts.push_back(c.as_uint());
        }
      }
      h.count = value.uint_or("count", 0);
      h.sum = value.number_or("sum", 0.0);
      s.histograms.emplace(name, std::move(h));
    }
  }
  return s;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << "# TYPE " << name << " counter\n" << name << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << "# TYPE " << name << " gauge\n" << name << " " << value << "\n";
  }
  for (const auto& [name, hist] : histograms) {
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      cumulative += hist.counts[i];
      os << name << "_bucket{le=\"" << fmt_bound(hist.bounds[i]) << "\"} "
         << cumulative << "\n";
    }
    cumulative += hist.counts.empty() ? 0 : hist.counts.back();
    os << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    os << name << "_sum " << fmt_double(hist.sum) << "\n";
    os << name << "_count " << hist.count << "\n";
  }
  return os.str();
}

// ---- MetricsRegistry --------------------------------------------------

MetricsRegistry::Shard& MetricsRegistry::shard_for(
    const std::string& name) const {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Shard& shard = shard_for(name);
  util::MutexLock lock(shard.mutex);
  auto& slot = shard.counters[name];
  if (!slot) slot = std::make_unique<Counter>(&enabled_);
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Shard& shard = shard_for(name);
  util::MutexLock lock(shard.mutex);
  auto& slot = shard.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>(&enabled_);
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, Histogram::default_latency_bounds());
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  Shard& shard = shard_for(name);
  util::MutexLock lock(shard.mutex);
  auto& slot = shard.histograms[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(bounds), &enabled_);
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mutex);
    for (const auto& [name, c] : shard.counters) {
      s.counters[name] = c->value();
    }
    for (const auto& [name, g] : shard.gauges) {
      s.gauges[name] = g->value();
    }
    for (const auto& [name, h] : shard.histograms) {
      s.histograms.emplace(name, h->snapshot());
    }
  }
  return s;
}

}  // namespace phes::obs
