#ifndef ZERODB_FEATURIZE_NORMALIZATION_H_
#define ZERODB_FEATURIZE_NORMALIZATION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/units.h"

namespace zerodb::featurize {

/// Per-dimension standardization (z-score) fitted on the training corpus
/// and applied at train and inference time. For the zero-shot model the fit
/// spans all 19 training databases — the statistics themselves are
/// database-independent aggregates.
///
/// Fit-then-freeze concurrency contract (DESIGN.md "Concurrency
/// discipline"): Fit/Set are thread-compatible (single writer, before
/// publication); after that, Apply and the accessors are safe from any
/// number of threads because they only read the frozen statistics. Batched
/// inference relies on this — no lock is needed, and none should be added.
class FeatureNorm {
 public:
  FeatureNorm() = default;

  /// Fits mean/std per dimension over `rows`, row-major with `dim` floats
  /// per row (at least one row).
  void Fit(std::span<const float> rows, size_t dim);

  /// Writes (x - mean) / std of one row into `out`; copies the row when not
  /// fitted.
  void Apply(std::span<const float> row, float* out) const;

  bool fitted() const { return !mean_.empty(); }
  size_t dim() const { return mean_.size(); }
  const std::vector<float>& mean() const { return mean_; }
  const std::vector<float>& std() const { return std_; }

  /// Installs externally persisted statistics (model deserialization).
  void Set(std::vector<float> mean, std::vector<float> std);

 private:
  std::vector<float> mean_;
  std::vector<float> std_;
};

/// Scalar standardization for the regression target (log runtime). Same
/// fit-then-freeze contract as FeatureNorm: concurrent Normalize /
/// Denormalize calls are safe once fitted.
///
/// The target is typed LogMillis end to end: models produce it with
/// `Millis(record->runtime_ms).ToLog()` and invert readouts with
/// `Millis::FromLog(Denormalize(...))`, so a linear-space runtime can never
/// be normalized (or a normalized output mistaken for milliseconds)
/// without going through the named conversions in common/units.h.
class TargetNorm {
 public:
  void Fit(const std::vector<LogMillis>& values);
  double Normalize(LogMillis value) const;
  LogMillis Denormalize(double normalized) const;
  bool fitted() const { return fitted_; }
  double mean() const { return mean_; }
  double std() const { return std_; }

  /// Installs externally persisted statistics (model deserialization).
  void Set(double mean, double std);

 private:
  bool fitted_ = false;
  double mean_ = 0.0;
  double std_ = 1.0;
};

}  // namespace zerodb::featurize

#endif  // ZERODB_FEATURIZE_NORMALIZATION_H_
