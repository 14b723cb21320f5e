#ifndef ZERODB_NN_VALIDATE_H_
#define ZERODB_NN_VALIDATE_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "nn/tensor.h"

namespace zerodb::nn {

/// Debug-time NaN/Inf guards, invoked via ZDB_DCHECK_OK on layer boundaries
/// (Mlp::ForwardRows) and in the trainer's forward/backward. A NaN that
/// sneaks into one batch silently poisons every weight; these make it abort
/// loudly in debug builds and cost nothing under NDEBUG (the DCHECK swallow
/// never evaluates them). Shape agreement is checked unconditionally where
/// rows enter an Mlp.

/// No NaN/Inf in a buffer.
[[nodiscard]] inline Status ValidateFinite(std::span<const float> values,
                                           const char* context) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(
          StrFormat("%s: non-finite value %f at index %zu of %zu", context,
                    static_cast<double>(values[i]), i, values.size()));
    }
  }
  return Status::OK();
}

/// No NaN/Inf anywhere in the gradient buffers of `params` (post-backward
/// guard: one exploding batch otherwise corrupts the weights for good).
[[nodiscard]] inline Status ValidateFiniteGradients(
    const std::vector<Tensor>& params, const char* context) {
  for (size_t p = 0; p < params.size(); ++p) {
    const std::vector<float>& grad = params[p].grad();
    for (size_t i = 0; i < grad.size(); ++i) {
      if (!std::isfinite(grad[i])) {
        return Status::InvalidArgument(StrFormat(
            "%s: non-finite gradient %f at flat index %zu of parameter %zu",
            context, static_cast<double>(grad[i]), i, p));
      }
    }
  }
  return Status::OK();
}

}  // namespace zerodb::nn

#endif  // ZERODB_NN_VALIDATE_H_
