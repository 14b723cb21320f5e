#include "nn/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace zerodb::nn {

namespace {

/// The exponent bits of an IEEE-754 float: all set means NaN or infinity.
constexpr uint32_t kFloatExponentMask = 0x7f800000u;

/// Per-step Adam constants, hoisted out of the update loop. Every one of
/// them is the float the per-element expression used to compute, so the
/// update is the same arithmetic.
struct AdamCoefficients {
  float beta1;
  float one_minus_beta1;
  float beta2;
  float one_minus_beta2;
  float corrected_lr;
  float epsilon;
  float weight_decay;
  float clip_scale;
};

/// One Adam update over `n` elements. kClipped multiplies each gradient by
/// the clip scale and stores the product back; otherwise the gradient is
/// read as is (x * 1.0f == x, so skipping the product changes no value).
/// The __restrict pointers and -fno-math-errno (src/CMakeLists.txt) let the
/// loop vectorize; SSE's per-lane sqrt and divide round exactly like the
/// scalar ones.
template <bool kClipped>
void AdamUpdate(size_t n, const AdamCoefficients& c, float* __restrict data,
                float* __restrict grad, float* __restrict m,
                float* __restrict v) {
  for (size_t i = 0; i < n; ++i) {
    float clipped = grad[i];
    if constexpr (kClipped) {
      clipped *= c.clip_scale;
      grad[i] = clipped;
    }
    const float g = clipped + c.weight_decay * data[i];
    m[i] = c.beta1 * m[i] + c.one_minus_beta1 * g;
    v[i] = c.beta2 * v[i] + c.one_minus_beta2 * g * g;
    data[i] -= c.corrected_lr * m[i] / (std::sqrt(v[i]) + c.epsilon);
  }
}

}  // namespace

bool SumShardGradients(std::span<const float* const> partials,
                       std::span<float> out) {
  ZDB_CHECK(!partials.empty());
  // Blocks small enough that the running sums stay in L1 while every shard
  // streams through once: one read of each partial and one write of `out`.
  constexpr size_t kBlock = 512;
  alignas(64) float acc[kBlock];
  uint32_t nonfinite = 0;
  for (size_t base = 0; base < out.size(); base += kBlock) {
    const size_t len = std::min(kBlock, out.size() - base);
    // 0.0f + p, not p: the zeroed buffer turns a -0.0f partial into +0.0f.
    const float* __restrict first = partials[0] + base;
    for (size_t j = 0; j < len; ++j) acc[j] = 0.0f + first[j];
    for (size_t s = 1; s < partials.size(); ++s) {
      const float* __restrict partial = partials[s] + base;
      for (size_t j = 0; j < len; ++j) acc[j] += partial[j];
    }
    float* __restrict dst = out.data() + base;
    for (size_t j = 0; j < len; ++j) {
      dst[j] = acc[j];
      nonfinite |= static_cast<uint32_t>(
          (std::bit_cast<uint32_t>(acc[j]) & kFloatExponentMask) ==
          kFloatExponentMask);
    }
  }
  return nonfinite == 0;
}

Adam::Adam(ParameterBlock* parameters, float learning_rate, float beta1,
           float beta2, float epsilon, float weight_decay)
    : parameters_(parameters),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay),
      first_moment_(parameters->size(), 0.0f),
      second_moment_(parameters->size(), 0.0f) {}

void Adam::Step() {
  ++step_count_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  const AdamCoefficients c{
      .beta1 = beta1_,
      .one_minus_beta1 = 1.0f - beta1_,
      .beta2 = beta2_,
      .one_minus_beta2 = 1.0f - beta2_,
      .corrected_lr =
          static_cast<float>(learning_rate_ * std::sqrt(bias2) / bias1),
      .epsilon = epsilon_,
      .weight_decay = weight_decay_,
      .clip_scale = clip_scale_,
  };
  const bool clipped = clip_scale_ != 1.0f;
  clip_scale_ = 1.0f;
  std::vector<float>& data = parameters_->values;
  std::vector<float>& grad = parameters_->grads;
  ZDB_CHECK_EQ(data.size(), first_moment_.size());
  ZDB_CHECK_EQ(grad.size(), first_moment_.size());
  float* m = first_moment_.data();
  float* v = second_moment_.data();
  if (clipped) {
    AdamUpdate<true>(data.size(), c, data.data(), grad.data(), m, v);
  } else {
    AdamUpdate<false>(data.size(), c, data.data(), grad.data(), m, v);
  }
}

void Adam::ZeroGrad() {
  std::fill(parameters_->grads.begin(), parameters_->grads.end(), 0.0f);
}

double Adam::ClipGradNorm(double max_norm) {
  ZDB_CHECK_GT(max_norm, 0.0);
  double total_sq = 0.0;
  for (float g : parameters_->grads) total_sq += static_cast<double>(g) * g;
  double norm = std::sqrt(total_sq);
  clip_scale_ =
      norm > max_norm ? static_cast<float>(max_norm / (norm + 1e-12)) : 1.0f;
  return norm;
}

}  // namespace zerodb::nn
