#ifndef ZERODB_NN_VALIDATE_H_
#define ZERODB_NN_VALIDATE_H_

#include <cmath>
#include <cstddef>
#include <span>

#include "common/status.h"
#include "common/string_util.h"

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

/// No NaN/Inf anywhere in a parameter block's gradients (post-backward
/// guard: one exploding batch otherwise corrupts the weights for good).
[[nodiscard]] inline Status ValidateFiniteGradients(
    std::span<const float> grads, const char* context) {
  for (size_t i = 0; i < grads.size(); ++i) {
    if (!std::isfinite(grads[i])) {
      return Status::InvalidArgument(StrFormat(
          "%s: non-finite gradient %f at block index %zu of %zu", context,
          static_cast<double>(grads[i]), i, grads.size()));
    }
  }
  return Status::OK();
}

}  // namespace zerodb::nn

#endif  // ZERODB_NN_VALIDATE_H_
