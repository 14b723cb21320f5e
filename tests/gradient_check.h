// Central-difference checks for the hand-written backward passes, shared by
// nn_test, property_test and models_test.
#ifndef ZERODB_TESTS_GRADIENT_CHECK_H_
#define ZERODB_TESTS_GRADIENT_CHECK_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/ops.h"

namespace zerodb::gradcheck {

/// Compares a hand-written gradient with central differences. For every
/// `stride`-th entry of `values` (the buffer the gradient is taken in), the
/// slope (loss(v + eps) - loss(v - eps)) / (2 eps) must lie within
/// tolerance * (1 + |analytic[i]|) of analytic[i]. `loss` reruns the
/// forward pass, reading `values`; each entry is restored before the next.
inline void ExpectCentralDifferences(std::span<float> values,
                                     std::span<const float> analytic,
                                     const std::function<float()>& loss,
                                     const std::string& what,
                                     size_t stride = 1, float eps = 1e-3f,
                                     float tolerance = 2e-3f) {
  ASSERT_EQ(values.size(), analytic.size()) << what;
  for (size_t i = 0; i < values.size(); i += stride) {
    const float original = values[i];
    values[i] = original + eps;
    const float up = loss();
    values[i] = original - eps;
    const float down = loss();
    values[i] = original;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * (1.0f + std::fabs(analytic[i])))
        << what << " index " << i;
  }
}

/// Checks Mlp::BackwardRows under nn::ScaledHuberLossBackward against
/// central differences of scale * the Huber loss of ForwardRows(x): the
/// gradient of the input x (rows, in_features) and of every float in
/// `params`, the block `mlp` was built into.
inline void ExpectMlpGradientsMatch(const nn::Mlp& mlp,
                                    nn::ParameterBlock* params,
                                    std::vector<float> x,
                                    const std::vector<float>& targets,
                                    float scale) {
  const size_t rows = targets.size();
  nn::MlpTape tape;
  std::vector<float> scratch;
  auto loss = [&]() {
    mlp.ForwardRows(*params, x, rows, &tape);
    return nn::HuberLossValue({tape.output(), rows}, targets, 1.0f) * scale;
  };
  std::fill(params->grads.begin(), params->grads.end(), 0.0f);
  mlp.ForwardRows(*params, x, rows, &tape);
  std::vector<float> d_out(rows, 0.0f);
  nn::ScaledHuberLossBackward({tape.output(), rows}, targets, 1.0f, scale,
                              d_out);
  std::vector<float> dx(x.size(), 0.0f);
  mlp.BackwardRows(params, x.data(), tape, d_out.data(), dx.data(), &scratch);

  ExpectCentralDifferences(x, dx, loss, "input");
  const std::vector<float> analytic = params->grads;
  ExpectCentralDifferences(params->values, analytic, loss, "parameter");
}

}  // namespace zerodb::gradcheck

#endif  // ZERODB_TESTS_GRADIENT_CHECK_H_
