#include "obs/quality.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/sync.h"

namespace zerodb::obs {

PredictionQualityMonitor::PredictionQualityMonitor(Options options)
    : options_(std::move(options)),
      log_threshold_(std::log(std::max(options_.drift_threshold, 1.0))) {
  MetricsRegistry* registry =
      options_.registry != nullptr ? options_.registry
                                   : &MetricsRegistry::Global();
  const std::string& prefix = options_.metric_prefix;
  // Q-errors start at 1; factor 1.3 gives ~4 buckets per doubling up to
  // ~1500x, fine-grained enough for p95 interpolation near 1.
  qerror_histogram_ = registry->GetHistogram(
      prefix + ".qerror", Histogram::ExponentialBounds(1.0, 1.3, 28));
  drift_gauge_ = registry->GetGauge(prefix + ".drift");
  ewma_gauge_ = registry->GetGauge(prefix + ".ewma_qerror");
  samples_counter_ = registry->GetCounter(prefix + ".samples");
  drift_events_counter_ = registry->GetCounter(prefix + ".drift_events");
}

void PredictionQualityMonitor::Record(double predicted_ms, double actual_ms) {
  if (!(actual_ms > 0.0)) return;  // also rejects NaN
  const double qerr = QError(predicted_ms, actual_ms);
  const double log_qerr = std::log(std::max(qerr, 1.0));

  qerror_histogram_->Observe(qerr);
  samples_counter_->Add(1);

  MutexLock lock(&mu_);
  ++samples_;
  max_qerror_ = std::max(max_qerror_, qerr);

  if (!reference_frozen_) {
    warmup_logs_.push_back(log_qerr);
    ewma_log_ = log_qerr;  // track raw level until the detector arms
    if (warmup_logs_.size() >= std::max<size_t>(options_.min_samples, 1)) {
      reference_log_ = Quantile(warmup_logs_, 0.5);
      ewma_log_ = reference_log_;
      reference_frozen_ = true;
      warmup_logs_.clear();
      warmup_logs_.shrink_to_fit();
    }
  } else {
    const double alpha = std::clamp(options_.ewma_alpha, 0.0, 1.0);
    ewma_log_ = (1.0 - alpha) * ewma_log_ + alpha * log_qerr;
  }
  ewma_gauge_->Set(std::exp(ewma_log_));
  UpdateDriftLocked();
}

void PredictionQualityMonitor::UpdateDriftLocked() {
  const bool was_drifting = drifting_.load(std::memory_order_relaxed);
  const bool now_drifting =
      reference_frozen_ && (ewma_log_ - reference_log_ > log_threshold_);
  if (now_drifting != was_drifting) {
    drifting_.store(now_drifting, std::memory_order_relaxed);
    drift_gauge_->Set(now_drifting ? 1.0 : 0.0);
    if (now_drifting) {
      ++drift_events_;
      drift_events_counter_->Add(1);
    }
  }
  if (now_drifting &&
      (last_warn_sample_ < 0 ||
       samples_ - last_warn_sample_ >= std::max<int64_t>(options_.warn_every,
                                                         1))) {
    last_warn_sample_ = samples_;
    ZDB_LOG(Warning) << "prediction quality drift: ewma q-error "
                     << std::exp(ewma_log_) << " vs warm-up reference "
                     << std::exp(reference_log_) << " (threshold "
                     << options_.drift_threshold << "x, " << samples_
                     << " samples)";
  }
}

int64_t PredictionQualityMonitor::samples() const {
  MutexLock lock(&mu_);
  return samples_;
}

int64_t PredictionQualityMonitor::drift_events() const {
  MutexLock lock(&mu_);
  return drift_events_;
}

double PredictionQualityMonitor::EwmaQError() const {
  MutexLock lock(&mu_);
  return samples_ > 0 ? std::exp(ewma_log_) : 1.0;
}

double PredictionQualityMonitor::ReferenceQError() const {
  MutexLock lock(&mu_);
  return reference_frozen_ ? std::exp(reference_log_) : 1.0;
}

double PredictionQualityMonitor::QErrorQuantile(double q) const {
  return qerror_histogram_->Quantile(q);
}

JsonValue PredictionQualityMonitor::ToJson() const {
  MutexLock lock(&mu_);
  JsonValue out = JsonValue::Object();
  out.Set("samples", samples_);

  JsonValue qerror = JsonValue::Object();
  qerror.Set("p50", qerror_histogram_->Quantile(0.5));
  qerror.Set("p95", qerror_histogram_->Quantile(0.95));
  qerror.Set("p99", qerror_histogram_->Quantile(0.99));
  qerror.Set("max", max_qerror_);
  out.Set("qerror", std::move(qerror));

  JsonValue drift = JsonValue::Object();
  drift.Set("drifting", drifting_.load(std::memory_order_relaxed));
  drift.Set("events", drift_events_);
  drift.Set("ewma_qerror", samples_ > 0 ? std::exp(ewma_log_) : 1.0);
  drift.Set("reference_qerror",
            reference_frozen_ ? std::exp(reference_log_) : 1.0);
  drift.Set("threshold", options_.drift_threshold);
  drift.Set("armed", reference_frozen_);
  out.Set("drift", std::move(drift));
  return out;
}

}  // namespace zerodb::obs
