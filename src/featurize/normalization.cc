#include "featurize/normalization.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace zerodb::featurize {

void FeatureNorm::Fit(std::span<const float> rows, size_t dim) {
  ZDB_CHECK_GT(dim, 0u);
  ZDB_CHECK(!rows.empty());
  ZDB_CHECK_EQ(rows.size() % dim, 0u);
  std::vector<double> sum(dim, 0.0);
  std::vector<double> sum_sq(dim, 0.0);
  for (size_t begin = 0; begin < rows.size(); begin += dim) {
    for (size_t d = 0; d < dim; ++d) {
      double v = rows[begin + d];
      sum[d] += v;
      sum_sq[d] += v * v;
    }
  }
  const double n = static_cast<double>(rows.size() / dim);
  mean_.resize(dim);
  std_.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    double mean = sum[d] / n;
    double variance = std::max(0.0, sum_sq[d] / n - mean * mean);
    double std = std::sqrt(variance);
    mean_[d] = static_cast<float>(mean);
    // Constant dimensions (flags that never fire, the bias) pass through
    // unscaled around their mean.
    std_[d] = std < 1e-6 ? 1.0f : static_cast<float>(std);
  }
}

void FeatureNorm::Apply(std::span<const float> row, float* out) const {
  if (!fitted()) {
    std::copy(row.begin(), row.end(), out);
    return;
  }
  ZDB_CHECK_EQ(row.size(), mean_.size());
  for (size_t d = 0; d < row.size(); ++d) {
    out[d] = (row[d] - mean_[d]) / std_[d];
    // Fit() clamps std below 1e-6, so a non-finite output means the raw
    // feature was already NaN/Inf — flag it at the first normalization.
    ZDB_DCHECK(std::isfinite(out[d]));
  }
}

void FeatureNorm::Set(std::vector<float> mean, std::vector<float> std) {
  ZDB_CHECK_EQ(mean.size(), std.size());
  mean_ = std::move(mean);
  std_ = std::move(std);
}

void TargetNorm::Set(double mean, double std) {
  mean_ = mean;
  std_ = std < 1e-9 ? 1.0 : std;
  fitted_ = true;
}

void TargetNorm::Fit(const std::vector<LogMillis>& values) {
  ZDB_CHECK(!values.empty());
  std::vector<double> raw;
  raw.reserve(values.size());
  for (LogMillis value : values) raw.push_back(value.value());
  mean_ = Mean(raw);
  double std = StdDev(raw);
  std_ = std < 1e-9 ? 1.0 : std;
  fitted_ = true;
}

double TargetNorm::Normalize(LogMillis value) const {
  ZDB_CHECK(fitted_);
  ZDB_DCHECK(std::isfinite(value.value()));
  return (value.value() - mean_) / std_;
}

LogMillis TargetNorm::Denormalize(double normalized) const {
  ZDB_CHECK(fitted_);
  return LogMillis(normalized * std_ + mean_);
}

}  // namespace zerodb::featurize
