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

/// One row of LinearFused over raw buffers, with no graph node: out =
/// x (in) * weight (in, out) + bias, rectified when `relu`. Runs the same
/// row kernel and epilogue on a zeroed `out`, so the result is bit-identical
/// to the matching row of LinearFused. `out` must not overlap `x`.
void LinearRow(std::span<const float> x, const Tensor& weight,
               const Tensor& bias, bool relu, std::span<float> out);

/// Elementwise sum of same-shape tensors.
Tensor Add(const Tensor& a, const Tensor& b);

/// Multiplies every element by a constant.
Tensor Scale(const Tensor& x, float factor);

/// Rectified linear unit.
Tensor Relu(const Tensor& x);

/// Gathers rows: out[i] = x[indices[i]]. Backward scatter-adds.
Tensor RowGather(const Tensor& x, std::vector<uint32_t> indices);

/// Scatter-add of rows: out has `out_rows` rows, out[indices[i]] += x[i].
/// The DeepSets "sum children" step of the message passing phase.
Tensor RowScatterAdd(const Tensor& x, std::vector<uint32_t> indices,
                     size_t out_rows);

/// Fused accumulator scatter: out = base; out[indices[i]] += x[i].
/// Functionally Add(base, RowScatterAdd(x, indices, base.rows())) without
/// materializing the zero-filled intermediate — the pattern the tree model
/// uses to accumulate per-encoder and per-level rows into a shared
/// (total_nodes, hidden) state.
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

}  // namespace zerodb::nn

#endif  // ZERODB_NN_OPS_H_
