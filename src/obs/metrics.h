#ifndef ZERODB_OBS_METRICS_H_
#define ZERODB_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/json.h"

namespace zerodb::obs {

class MetricsRegistry;

/// Monotonically increasing event count. Writes are relaxed atomics gated on
/// the owning registry's enabled flag, so a disabled registry costs one load
/// and one predictable branch per Add.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<int64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// Last-written value (e.g. a configuration knob or a level).
class Gauge {
 public:
  void Set(double value) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(value, std::memory_order_relaxed);
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<double> value_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Fixed-bucket histogram with lock-free writes. Bucket upper bounds are
/// set at creation (plus an implicit +inf overflow bucket); quantiles are
/// estimated by linear interpolation inside the containing bucket, which is
/// exact enough for latency summaries at the default exponential bounds.
class Histogram {
 public:
  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;
  double max() const;
  /// q in [0, 1]; returns 0 when empty.
  double Quantile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  int64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  JsonValue ToJson() const;

  /// `n` bucket bounds start, start*factor, start*factor^2, ... — the
  /// default microsecond-latency layout spans 1us..~17s with factor 2.
  static std::vector<double> ExponentialBounds(double start = 1.0,
                                               double factor = 2.0,
                                               size_t n = 24);

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds);

  std::vector<double> bounds_;  ///< sorted upper bounds, ascending
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
  const std::atomic<bool>* enabled_;
};

/// Thread-safe, name-keyed registry of counters, gauges and histograms.
/// Metric objects are created on first request and live as long as the
/// registry; call sites cache the returned pointers so the hot path never
/// touches the name map. The registry starts disabled: every metric write
/// is then a single relaxed load + branch ("a few branches per operator"),
/// verified by BM_ExecutorMetricsOverhead in bench_micro.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = false) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry the built-in instrumentation (executor, planner,
  /// trainer, estimator) reports to. Disabled until someone — typically a
  /// bench run with --metrics_out — enables it.
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  Counter* GetCounter(const std::string& name) ZDB_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) ZDB_EXCLUDES(mu_);
  /// `bounds` applies only on first creation; empty = default exponential
  /// microsecond bounds.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {}) ZDB_EXCLUDES(mu_);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with names
  /// sorted for stable artifacts.
  JsonValue ToJson() const ZDB_EXCLUDES(mu_);

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::unique_ptr<T> metric;
  };

  std::atomic<bool> enabled_;
  // Guards the name→metric maps only. The metric objects themselves are
  // lock-free (atomics); Get* hands out stable pointers that outlive the
  // lock because entries are never erased and the metrics are heap-owned.
  mutable Mutex mu_;
  std::vector<Entry<Counter>> counters_ ZDB_GUARDED_BY(mu_);
  std::vector<Entry<Gauge>> gauges_ ZDB_GUARDED_BY(mu_);
  std::vector<Entry<Histogram>> histograms_ ZDB_GUARDED_BY(mu_);
};

/// RAII wall-clock timer: records the scope's duration (microseconds) into
/// a histogram and/or counter on destruction. Pass nullptr targets (or a
/// disabled registry) to make it a no-op; it then never reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram, Counter* total_us = nullptr)
      : histogram_(histogram), total_us_(total_us) {
    if (histogram_ != nullptr || total_us_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
      armed_ = true;
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double ElapsedUs() const {
    if (!armed_) return 0.0;
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  ~ScopedTimer() {
    if (!armed_) return;
    double us = ElapsedUs();
    if (histogram_ != nullptr) histogram_->Observe(us);
    if (total_us_ != nullptr) total_us_->Add(static_cast<int64_t>(us));
  }

 private:
  Histogram* histogram_;
  Counter* total_us_;
  std::chrono::steady_clock::time_point start_;
  bool armed_ = false;
};

}  // namespace zerodb::obs

#endif  // ZERODB_OBS_METRICS_H_
