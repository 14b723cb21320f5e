#ifndef ZERODB_OBS_QUALITY_H_
#define ZERODB_OBS_QUALITY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace zerodb::obs {

/// Online monitor for serving-time prediction quality: feed it
/// (predicted, actual) runtime pairs and it maintains rolling q-error
/// statistics plus an EWMA drift detector that flags when the model's live
/// accuracy degrades versus its warm-up baseline — the serving-side answer
/// to "is the zero-shot model still trustworthy on this workload?".
///
/// Math (DESIGN.md "Timeline tracing & quality monitoring"): every sample's
/// q-error max(p/a, a/p) is tracked in log space, where "no error" is 0 and
/// the metric is symmetric in over-/under-estimation. The first
/// `min_samples` log-q-errors freeze a reference median; afterwards an EWMA
/// with weight `ewma_alpha` follows the live level, and drift fires while
///   ewma_log - reference_log > log(drift_threshold)
/// i.e. the *typical* q-error has grown by more than `drift_threshold`×
/// relative to warm-up. The EWMA (not a windowed mean) makes the detector
/// O(1) per sample and biased toward recent behaviour; alpha = 0.05 weights
/// roughly the last ~40 samples.
///
/// Thread-safe: the warm-up and scalar state sit behind an annotated
/// Mutex (Record is not on any per-tuple hot path — one call per executed
/// query); `drifting()` is a lock-free atomic read for cheap call sites like
/// the what-if advisor.
class PredictionQualityMonitor {
 public:
  struct Options {
    /// Samples used to freeze the warm-up reference median before the drift
    /// detector arms itself.
    size_t min_samples = 32;
    /// EWMA weight on the newest log-q-error.
    double ewma_alpha = 0.05;
    /// Drift fires when the EWMA q-error level exceeds reference ×
    /// drift_threshold.
    double drift_threshold = 2.0;
    /// At most one drift warning log line per this many recorded samples.
    int64_t warn_every = 256;
    /// Metric name prefix ("quality" → quality.qerror, quality.drift, ...).
    std::string metric_prefix = "quality";
    /// Registry to export to; nullptr = MetricsRegistry::Global(). The
    /// monitor keeps its own counts too, so it works (and is testable) with
    /// a disabled registry.
    MetricsRegistry* registry = nullptr;
  };

  // Split (not a default argument) because GCC rejects using a nested
  // struct's default member initializers in a default argument of the
  // enclosing class; the delegating body runs in complete-class context.
  PredictionQualityMonitor() : PredictionQualityMonitor(Options()) {}
  explicit PredictionQualityMonitor(Options options);

  PredictionQualityMonitor(const PredictionQualityMonitor&) = delete;
  PredictionQualityMonitor& operator=(const PredictionQualityMonitor&) =
      delete;

  /// Records one serving-time observation. Non-positive actuals are ignored
  /// (no ground truth). Updates the q-error histogram, EWMA and drift
  /// state.
  void Record(double predicted_ms, double actual_ms) ZDB_EXCLUDES(mu_);

  /// True while the EWMA q-error level exceeds the warm-up reference by more
  /// than drift_threshold×. Lock-free.
  bool drifting() const { return drifting_.load(std::memory_order_relaxed); }

  int64_t samples() const ZDB_EXCLUDES(mu_);
  /// Times the detector transitioned healthy → drifting.
  int64_t drift_events() const ZDB_EXCLUDES(mu_);
  /// Current EWMA q-error level (geometric, exp of the log-space EWMA);
  /// 1.0 before any samples.
  double EwmaQError() const ZDB_EXCLUDES(mu_);
  /// Frozen warm-up reference q-error median; 1.0 until min_samples arrive.
  double ReferenceQError() const ZDB_EXCLUDES(mu_);
  /// Histogram-estimated q-error quantile over all recorded samples.
  double QErrorQuantile(double q) const;

  /// {"samples": ..., "qerror": {p50, p95, max}, "drift": {...}} — embedded
  /// by MetricsArtifact as its "quality" section.
  JsonValue ToJson() const ZDB_EXCLUDES(mu_);

  const Options& options() const { return options_; }

 private:
  void UpdateDriftLocked() ZDB_REQUIRES(mu_);

  const Options options_;
  const double log_threshold_;

  Histogram* qerror_histogram_;  ///< registry-owned
  Gauge* drift_gauge_;
  Gauge* ewma_gauge_;
  Counter* samples_counter_;
  Counter* drift_events_counter_;

  std::atomic<bool> drifting_{false};

  mutable Mutex mu_;
  std::vector<double> warmup_logs_ ZDB_GUARDED_BY(mu_);
  double reference_log_ ZDB_GUARDED_BY(mu_) = 0.0;
  bool reference_frozen_ ZDB_GUARDED_BY(mu_) = false;
  double ewma_log_ ZDB_GUARDED_BY(mu_) = 0.0;
  int64_t samples_ ZDB_GUARDED_BY(mu_) = 0;
  int64_t drift_events_ ZDB_GUARDED_BY(mu_) = 0;
  int64_t last_warn_sample_ ZDB_GUARDED_BY(mu_) = -1;
  double max_qerror_ ZDB_GUARDED_BY(mu_) = 1.0;
};

}  // namespace zerodb::obs

#endif  // ZERODB_OBS_QUALITY_H_
