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

/// Debug-time tensor invariants, invoked via ZDB_DCHECK_OK on layer
/// boundaries (Linear/Mlp forward) and in the trainer's forward/backward.
/// A NaN that sneaks into one batch silently poisons every weight; a shape
/// mismatch that happens to be in-bounds silently mixes features. These
/// validators make both abort loudly in debug builds and cost nothing under
/// NDEBUG (the DCHECK swallow never evaluates them).

/// The tensor handle refers to a node (defined()), and rows/cols match the
/// value buffer.
[[nodiscard]] inline Status ValidateTensor(const Tensor& t,
                                           const char* context) {
  if (!t.defined()) {
    return Status::InvalidArgument(
        StrFormat("%s: tensor is undefined (null handle)", context));
  }
  if (t.data().size() != t.rows() * t.cols()) {
    return Status::InvalidArgument(StrFormat(
        "%s: value buffer has %zu elements for shape (%zu, %zu)", context,
        t.data().size(), t.rows(), t.cols()));
  }
  return Status::OK();
}

/// Exact shape agreement.
[[nodiscard]] inline Status ValidateShape(const Tensor& t, size_t rows,
                                          size_t cols, const char* context) {
  ZDB_RETURN_NOT_OK(ValidateTensor(t, context));
  if (t.rows() != rows || t.cols() != cols) {
    return Status::InvalidArgument(
        StrFormat("%s: expected shape (%zu, %zu), got (%zu, %zu)", context,
                  rows, cols, t.rows(), t.cols()));
  }
  return Status::OK();
}

/// Same shape on both tensors (elementwise-op precondition).
[[nodiscard]] inline Status ValidateSameShape(const Tensor& a,
                                              const Tensor& b,
                                              const char* context) {
  ZDB_RETURN_NOT_OK(ValidateTensor(a, context));
  return ValidateShape(b, a.rows(), a.cols(), context);
}

/// Column count agreement: `t` feeds a consumer expecting `features`
/// columns (e.g. a Linear layer's in_features).
[[nodiscard]] inline Status ValidateFeatureDim(const Tensor& t,
                                               size_t features,
                                               const char* context) {
  ZDB_RETURN_NOT_OK(ValidateTensor(t, context));
  if (t.cols() != features) {
    return Status::InvalidArgument(
        StrFormat("%s: expected %zu feature columns, got (%zu, %zu)",
                  context, features, t.rows(), t.cols()));
  }
  return Status::OK();
}

/// No NaN/Inf anywhere in the values.
[[nodiscard]] inline Status ValidateFinite(const Tensor& t,
                                           const char* context) {
  ZDB_RETURN_NOT_OK(ValidateTensor(t, context));
  const std::vector<float>& values = t.data();
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(StrFormat(
          "%s: non-finite value %f at flat index %zu of (%zu, %zu)", context,
          static_cast<double>(values[i]), i, t.rows(), t.cols()));
    }
  }
  return Status::OK();
}

/// No NaN/Inf in a raw buffer (the tree models' graph-free pass).
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
