#ifndef ZERODB_NN_OPS_H_
#define ZERODB_NN_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.h"

namespace zerodb::nn {

/// Matrix product: (m,k) x (k,n) -> (m,n).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Adds a (1,n) bias row to every row of the (m,n) input.
Tensor AddBias(const Tensor& x, const Tensor& bias);

/// Fused dense layer: out = x (m,k) * weight (k,n) + bias (1,n), with an
/// optional ReLU on the result. Numerically identical to
/// Relu(AddBias(MatMul(x, weight), bias)) — the bias is added after the full
/// k-accumulation and the row is rectified in the same pass — but touches
/// each output row once while it is still in cache instead of streaming the
/// (m,n) intermediate through memory twice, and builds one graph node
/// instead of three.
Tensor LinearFused(const Tensor& x, const Tensor& weight, const Tensor& bias,
                   bool relu);

/// Elementwise sum of same-shape tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// Multiplies every element by a constant.
Tensor Scale(const Tensor& x, float factor);

/// Rectified linear unit.
Tensor Relu(const Tensor& x);

/// Gathers rows: out[i] = x[indices[i]]. Backward scatter-adds. No model
/// uses it: it stays as an op of the graph-built tree forward pass that
/// models_test keeps as the reference for the tree models' graph-free pass.
Tensor RowGather(const Tensor& x, std::vector<uint32_t> indices);

/// Scatter-add of rows: out has `out_rows` rows, out[indices[i]] += x[i].
/// MSCN's per-query set sum.
Tensor RowScatterAdd(const Tensor& x, std::vector<uint32_t> indices,
                     size_t out_rows);

/// Fused accumulator scatter: out = base; out[indices[i]] += x[i].
/// Functionally Add(base, RowScatterAdd(x, indices, base.rows())) without
/// materializing the zero-filled intermediate. No model uses it: like
/// RowGather, it stays as an op of the graph-built tree forward pass that
/// models_test keeps as the reference for the tree models' graph-free pass.
Tensor RowScatterAddTo(const Tensor& base, const Tensor& x,
                       std::vector<uint32_t> indices);

/// Multiplies row i of x by factors[i] (constants, not differentiated).
/// Used for mean pooling (factors = 1/set_size).
Tensor ScaleRows(const Tensor& x, std::vector<float> factors);

/// Concatenates along columns: shapes (m,n1),(m,n2) -> (m,n1+n2).
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Mean squared error between (n,1) predictions and constant (n,1) targets,
/// as a scalar (1,1) tensor.
Tensor MseLoss(const Tensor& predictions, const Tensor& targets);

/// Huber (smooth-L1) loss with threshold delta, as a scalar tensor.
Tensor HuberLoss(const Tensor& predictions, const Tensor& targets,
                 float delta = 1.0f);

/// Runs reverse-mode autodiff from Scale(loss, scale) — the scalar `loss`
/// scaled by `scale` — adding d(scale * loss)/dθ into every parameter's
/// grad buffer, and returns scale * loss. The graph-built models' gradient
/// call.
float BackwardScaled(const Tensor& loss, float scale);

// ---- Raw-buffer kernels ----------------------------------------------------
//
// The graph ops above and the tree models' graph-free training pass run the
// same arithmetic through these, so both share one accumulation order and
// one FMA contraction: only this file is built -march=native (DESIGN.md
// "Fused, blocked kernels"), and a multiply-add compiled anywhere else may
// round differently. No graph node is created. Buffers are row-major; an
// output buffer must not overlap an input.

/// LinearFused's forward: out (m, n) = x (m, k) * weight (k, n) + bias,
/// rectified when `relu`. `out` is zero-filled first, as LinearFused's
/// result buffer is.
void LinearForward(const float* x, size_t m, const Tensor& weight,
                   const Tensor& bias, bool relu, float* out);

/// LinearFused's backward, one fused pass over the rows: given the input
/// x (m, k), the layer's output `out` (m, n) and its gradient `dout`, adds
/// dX (m, k) into `dx`, dW (k, n) into `dw` and db (n) into `db`, each
/// skipped when null. `weight` is the layer's (k, n) weight values; `dz` is
/// n floats of scratch.
void LinearBackward(const float* x, const float* out, const float* dout,
                    size_t m, size_t k, size_t n, const float* weight,
                    bool relu, float* dx, float* dw, float* db, float* dz);

/// HuberLoss's value and its backward under a Scale: returns scale * the
/// mean Huber loss of `predictions` against `targets`, and adds
/// d(scale * loss)/d(predictions) into `grad` — the arithmetic
/// BackwardScaled(HuberLoss(p, t, delta), scale) runs on the loss path.
float ScaledHuberLossBackward(std::span<const float> predictions,
                              std::span<const float> targets, float delta,
                              float scale, std::span<float> grad);

/// HuberLoss's value alone (the validation loss).
float HuberLossValue(std::span<const float> predictions,
                     std::span<const float> targets, float delta);

}  // namespace zerodb::nn

#endif  // ZERODB_NN_OPS_H_
