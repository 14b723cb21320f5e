#ifndef ZERODB_NN_OPS_H_
#define ZERODB_NN_OPS_H_

#include <cstddef>
#include <span>

namespace zerodb::nn {

// Raw-buffer kernels: the arithmetic of every model's forward and backward
// pass. Only this file is built -march=native (DESIGN.md "Fused, blocked
// kernels"); every multiply-add here is an explicit std::fma and nothing
// else is fused, so the kernels round the same in every build, while a
// multiply-add compiled elsewhere rounds twice: keep the arithmetic that
// training and serving share in this file. Buffers are row-major; an output
// buffer must not overlap an input.

/// A dense layer's forward: out (m, n) = x (m, k) * weight (k, n) + bias
/// (n), rectified when `relu`. The bias is added after the full
/// k-accumulation and the row is rectified in the same pass. `out` is
/// zero-filled first.
void LinearForward(const float* x, size_t m, size_t k, size_t n,
                   const float* weight, const float* bias, bool relu,
                   float* out);

/// A dense layer's backward, one fused pass over the rows: given the input
/// x (m, k), the layer's output `out` (m, n) and its gradient `dout`, adds
/// dX (m, k) into `dx`, dW (k, n) into `dw` and db (n) into `db`, each
/// skipped when null. `weight` is the layer's (k, n) weight values; `dz` is
/// n floats of scratch.
void LinearBackward(const float* x, const float* out, const float* dout,
                    size_t m, size_t k, size_t n, const float* weight,
                    bool relu, float* dx, float* dw, float* db, float* dz);

/// The training loss head: returns scale * the mean Huber loss of
/// `predictions` against `targets`, and adds d(scale * loss)/d(predictions)
/// into `grad`.
float ScaledHuberLossBackward(std::span<const float> predictions,
                              std::span<const float> targets, float delta,
                              float scale, std::span<float> grad);

/// The mean Huber loss alone (the validation loss).
float HuberLossValue(std::span<const float> predictions,
                     std::span<const float> targets, float delta);

/// dst row += src row, n floats: the row move of every model's scatters
/// and gathers. Adds alone round the same in any build, so it is inline,
/// kept here as the one copy rather than for the FMA contract.
inline void AddRow(const float* src, size_t n, float* dst) {
  for (size_t j = 0; j < n; ++j) dst[j] += src[j];
}

/// Multiplies the first n floats of row i of x (rows `stride` floats apart)
/// by factors[i], in place.
void ScaleRowsInPlace(float* x, size_t stride, size_t n,
                      std::span<const float> factors);

/// The backward of ScaleRowsInPlace: adds g row i (rows `g_stride` floats
/// apart, n used) times factors[i] into row i of `out` (rows of n floats).
void ScaleRowsAccumulate(const float* g, size_t g_stride, size_t n,
                         std::span<const float> factors, float* out);

}  // namespace zerodb::nn

#endif  // ZERODB_NN_OPS_H_
