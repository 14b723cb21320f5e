#include "obs/metrics.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/sync.h"
#include "obs/pool_telemetry.h"

namespace zerodb::obs {

namespace {

// fetch_add for atomic<double> predates wide libstdc++ support; CAS loop.
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(const std::atomic<bool>* enabled,
                     std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()),
      enabled_(enabled) {
  ZDB_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double value) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  size_t bucket =
      static_cast<size_t>(std::upper_bound(bounds_.begin(), bounds_.end(),
                                           value) -
                          bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

double Histogram::mean() const {
  int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double cumulative = 0.0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    const double in_bucket =
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (cumulative + in_bucket >= target || i == bounds_.size()) {
      // Interpolate within [lo, hi); clamp to observed extremes so tiny
      // samples do not report a bound nothing ever reached.
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : max();
      double fraction =
          in_bucket > 0.0 ? (target - cumulative) / in_bucket : 1.0;
      fraction = std::clamp(fraction, 0.0, 1.0);
      double value = lo + fraction * (hi - lo);
      return std::clamp(value, min(), max());
    }
    cumulative += in_bucket;
  }
  return max();
}

JsonValue Histogram::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("count", count());
  out.Set("sum", sum());
  out.Set("mean", mean());
  out.Set("min", min());
  out.Set("max", max());
  out.Set("p50", Quantile(0.5));
  out.Set("p95", Quantile(0.95));
  out.Set("p99", Quantile(0.99));
  JsonValue buckets = JsonValue::Array();
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    int64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;  // keep artifacts compact
    JsonValue bucket = JsonValue::Object();
    bucket.Set("le", i < bounds_.size()
                         ? JsonValue(bounds_[i])
                         : JsonValue("inf"));
    bucket.Set("count", in_bucket);
    buckets.Append(std::move(bucket));
  }
  out.Set("buckets", std::move(buckets));
  return out;
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t n) {
  ZDB_CHECK(start > 0.0 && factor > 1.0 && n > 0);
  std::vector<double> bounds(n);
  double bound = start;
  for (size_t i = 0; i < n; ++i) {
    bounds[i] = bound;
    bound *= factor;
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry(/*enabled=*/false);
  // Anyone touching the global registry gets pool telemetry wired up too;
  // the pool itself cannot do this (common/ may not depend on obs/).
  InstallPoolTelemetry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& entry : counters_) {
    if (entry.name == name) return entry.metric.get();
  }
  counters_.push_back(
      {name, std::unique_ptr<Counter>(new Counter(&enabled_))});
  return counters_.back().metric.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  for (auto& entry : gauges_) {
    if (entry.name == name) return entry.metric.get();
  }
  gauges_.push_back({name, std::unique_ptr<Gauge>(new Gauge(&enabled_))});
  return gauges_.back().metric.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(&mu_);
  for (auto& entry : histograms_) {
    if (entry.name == name) return entry.metric.get();
  }
  if (bounds.empty()) bounds = Histogram::ExponentialBounds();
  histograms_.push_back({name, std::unique_ptr<Histogram>(new Histogram(
                                   &enabled_, std::move(bounds)))});
  return histograms_.back().metric.get();
}

JsonValue MetricsRegistry::ToJson() const {
  MutexLock lock(&mu_);
  auto sorted_names = [](const auto& entries) {
    std::vector<size_t> order(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return entries[a].name < entries[b].name;
    });
    return order;
  };

  JsonValue out = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (size_t i : sorted_names(counters_)) {
    counters.Set(counters_[i].name, counters_[i].metric->value());
  }
  out.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (size_t i : sorted_names(gauges_)) {
    gauges.Set(gauges_[i].name, gauges_[i].metric->value());
  }
  out.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (size_t i : sorted_names(histograms_)) {
    histograms.Set(histograms_[i].name, histograms_[i].metric->ToJson());
  }
  out.Set("histograms", std::move(histograms));
  return out;
}

}  // namespace zerodb::obs
