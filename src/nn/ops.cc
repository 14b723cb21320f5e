#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace zerodb::nn {

namespace {

// Accumulates gradient flowing to `parent` if it participates in autodiff.
// The Backward() pre-pass guarantees sized grad buffers for such nodes.
inline bool WantsGrad(const Node& parent) { return parent.requires_grad; }

// C += A * B for row-major matrices. Register-blocked i-k-j: four A
// scalars are broadcast against four consecutive B rows per pass, so the
// inner j loop is a branch-free chain of contiguous loads that -O3
// auto-vectorizes; the old per-element `a_ik == 0` skip is hoisted to one
// whole-block test, which still short-circuits the mostly-zero one-hot
// encoder inputs without defeating vectorization. Blocking over k changes
// float summation order versus a scalar k loop, so results match a
// reference matmul within tolerance, not bitwise
// (OpsTest.MatMulBlockedMatchesReference pins this). The single-row form is
// split out so LinearFused can apply bias+activation to each output row
// while it is still in cache.
//
// kCols > 0 fixes the row width at compile time, so the j loops fully
// unroll and `c_row` can live in registers for the whole k loop; 0 reads
// the width from b_cols. Both run the same per-element expression in the
// same order.
template <size_t kCols>
inline void RowAccumulate(const float* a_row, size_t a_cols, const float* b,
                          size_t b_cols, float* c_row) {
  const size_t cols = kCols > 0 ? kCols : b_cols;
  const size_t k_blocked = a_cols - a_cols % 4;
  size_t k = 0;
  for (; k < k_blocked; k += 4) {
    const float a0 = a_row[k];
    const float a1 = a_row[k + 1];
    const float a2 = a_row[k + 2];
    const float a3 = a_row[k + 3];
    if (a0 == 0.0f && a1 == 0.0f && a2 == 0.0f && a3 == 0.0f) continue;
    const float* b0 = b + k * cols;
    const float* b1 = b0 + cols;
    const float* b2 = b1 + cols;
    const float* b3 = b2 + cols;
    for (size_t j = 0; j < cols; ++j) {
      c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
    }
  }
  for (; k < a_cols; ++k) {
    const float a_ik = a_row[k];
    if (a_ik == 0.0f) continue;
    const float* b_row = b + k * cols;
    for (size_t j = 0; j < cols; ++j) {
      c_row[j] += a_ik * b_row[j];
    }
  }
}

void MatMulRowAccumulate(const float* a_row, size_t a_cols, const float* b,
                         size_t b_cols, float* c_row) {
  constexpr size_t kHidden = 64;  // the tree models' hidden width
  if (b_cols == kHidden) {
    // A local accumulator the compiler can keep in registers (c_row may
    // alias b as far as it knows, which forces a reload and store of the
    // row per k-block).
    float acc[kHidden];
    std::copy(c_row, c_row + kHidden, acc);
    RowAccumulate<kHidden>(a_row, a_cols, b, kHidden, acc);
    std::copy(acc, acc + kHidden, c_row);
    return;
  }
  RowAccumulate<0>(a_row, a_cols, b, b_cols, c_row);
}

// One dense-layer row: c_row (zero on entry) = a_row * b + bias, rectified
// when `relu`. The bias is added after the full k-accumulation, so the row
// equals Relu(AddBias(MatMul(...))) bit for bit. LinearForward runs it on
// every row, for LinearFused and for the tree models' graph-free pass alike.
void DenseRow(const float* a_row, size_t a_cols, const float* b, size_t b_cols,
              const float* bias, bool relu, float* c_row) {
  MatMulRowAccumulate(a_row, a_cols, b, b_cols, c_row);
  if (relu) {
    for (size_t j = 0; j < b_cols; ++j) {
      const float v = c_row[j] + bias[j];
      c_row[j] = v > 0.0f ? v : 0.0f;
    }
  } else {
    for (size_t j = 0; j < b_cols; ++j) {
      c_row[j] += bias[j];
    }
  }
}

void MatMulAccumulate(const float* a, size_t a_rows, size_t a_cols,
                      const float* b, size_t b_cols, float* c) {
  for (size_t i = 0; i < a_rows; ++i) {
    MatMulRowAccumulate(a + i * a_cols, a_cols, b, b_cols, c + i * b_cols);
  }
}

// C += A^T * B where A is (k, m) so A^T is (m, k); B is (k, n).
void MatMulTransAAccumulate(const float* a, size_t a_rows, size_t a_cols,
                            const float* b, size_t b_cols, float* c) {
  // c is (a_cols, b_cols). Iterate over k (= a_rows) outermost: sequential
  // access to both a and b rows.
  for (size_t k = 0; k < a_rows; ++k) {
    const float* a_row = a + k * a_cols;
    const float* b_row = b + k * b_cols;
    for (size_t i = 0; i < a_cols; ++i) {
      const float a_ki = a_row[i];
      if (a_ki == 0.0f) continue;
      float* c_row = c + i * b_cols;
      for (size_t j = 0; j < b_cols; ++j) {
        c_row[j] += a_ki * b_row[j];
      }
    }
  }
}

// C += A * B^T where A is (m, k), B is (n, k); result (m, n).
// Each dot product accumulates into 8 independent lanes that are combined
// in a fixed tree order: a single scalar accumulator serializes the whole
// reduction (the compiler may not reassociate floats), while per-lane
// chains keep the k loop in SIMD registers. The order is the same on every
// run and every thread count, so determinism contracts are unaffected —
// only the (fixed) summation order differs from a naive scalar loop.
void MatMulTransBAccumulate(const float* a, size_t a_rows, size_t a_cols,
                            const float* b, size_t b_rows, float* c) {
  const size_t k_blocked = a_cols - a_cols % 8;
  for (size_t i = 0; i < a_rows; ++i) {
    const float* a_row = a + i * a_cols;
    float* c_row = c + i * b_rows;
    for (size_t j = 0; j < b_rows; ++j) {
      const float* b_row = b + j * a_cols;
      float lanes[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
      size_t k = 0;
      for (; k < k_blocked; k += 8) {
        for (size_t l = 0; l < 8; ++l) {
          lanes[l] += a_row[k + l] * b_row[k + l];
        }
      }
      float dot = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                  ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
      for (; k < a_cols; ++k) {
        dot += a_row[k] * b_row[k];
      }
      c_row[j] += dot;
    }
  }
}

// out[i] = x[i] * factor: Scale's forward.
void ScaleInto(const float* x, size_t count, float factor, float* out) {
  for (size_t i = 0; i < count; ++i) out[i] = x[i] * factor;
}

// out[i] += g[i] * factor: Scale's backward.
void ScaleAccumulate(const float* g, size_t count, float factor, float* out) {
  for (size_t i = 0; i < count; ++i) out[i] += g[i] * factor;
}

// Adds the mean Huber loss's gradient, times the upstream d(out)/d(loss),
// into `grad`: HuberLoss's backward.
void HuberGradAccumulate(const float* predictions, const float* targets,
                         size_t count, float delta, float upstream,
                         float* grad) {
  const float scale = upstream / static_cast<float>(count);
  for (size_t i = 0; i < count; ++i) {
    float diff = predictions[i] - targets[i];
    float g = std::fabs(diff) <= delta ? diff : (diff > 0.0f ? delta : -delta);
    grad[i] += scale * g;
  }
}

// ---- Backward rules, dispatched from RunNodeBackward ----------------------
//
// Each reads its op context from the node's POD fields / aux buffers and
// recovers shapes from the node and its parents. Accumulation order within
// every destination buffer is fixed — independent of thread count and
// graph-cache state — so the loss-history equality contracts (threads=1 vs
// threads=N) hold bitwise.

void BackwardMatMul(Node* node) {
  Node* a_node = node->parents[0].get();
  Node* b_node = node->parents[1].get();
  const size_t m = node->rows;
  const size_t n = node->cols;
  const size_t k = a_node->cols;
  if (WantsGrad(*a_node)) {
    // dA += dC * B^T : (m,n) x (n,k)^T-of-(k,n)
    MatMulTransBAccumulate(node->grad.data(), m, n, b_node->values.data(), k,
                           a_node->grad.data());
  }
  if (WantsGrad(*b_node)) {
    // dB += A^T * dC : (m,k)^T x (m,n)
    MatMulTransAAccumulate(a_node->values.data(), m, k, node->grad.data(), n,
                           b_node->grad.data());
  }
}

void BackwardAddBias(Node* node) {
  Node* x_node = node->parents[0].get();
  Node* b_node = node->parents[1].get();
  const size_t m = node->rows;
  const size_t n = node->cols;
  if (WantsGrad(*x_node)) {
    for (size_t i = 0; i < m * n; ++i) x_node->grad[i] += node->grad[i];
  }
  if (WantsGrad(*b_node)) {
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        b_node->grad[j] += node->grad[i * n + j];
      }
    }
  }
}

void BackwardLinearFused(Node* node) {
  Node* x_node = node->parents[0].get();
  Node* w_node = node->parents[1].get();
  Node* b_node = node->parents[2].get();
  std::vector<float> dz(node->cols);
  LinearBackward(x_node->values.data(), node->values.data(),
                 node->grad.data(), node->rows, x_node->cols, node->cols,
                 w_node->values.data(), node->u0 != 0,
                 WantsGrad(*x_node) ? x_node->grad.data() : nullptr,
                 WantsGrad(*w_node) ? w_node->grad.data() : nullptr,
                 WantsGrad(*b_node) ? b_node->grad.data() : nullptr,
                 dz.data());
}

void BackwardAdd(Node* node) {
  Node* a_node = node->parents[0].get();
  Node* b_node = node->parents[1].get();
  const size_t count = node->size();
  if (WantsGrad(*a_node)) {
    for (size_t i = 0; i < count; ++i) a_node->grad[i] += node->grad[i];
  }
  if (WantsGrad(*b_node)) {
    for (size_t i = 0; i < count; ++i) b_node->grad[i] += node->grad[i];
  }
}

void BackwardScale(Node* node) {
  Node* x_node = node->parents[0].get();
  if (!WantsGrad(*x_node)) return;
  ScaleAccumulate(node->grad.data(), node->size(), node->f0,
                  x_node->grad.data());
}

void BackwardRelu(Node* node) {
  Node* x_node = node->parents[0].get();
  if (!WantsGrad(*x_node)) return;
  const size_t count = node->size();
  for (size_t i = 0; i < count; ++i) {
    if (x_node->values[i] > 0.0f) x_node->grad[i] += node->grad[i];
  }
}

void BackwardRowGather(Node* node) {
  Node* x_node = node->parents[0].get();
  if (!WantsGrad(*x_node)) return;
  const size_t n = node->cols;
  const std::vector<uint32_t>& indices = node->aux_indices;
  for (size_t i = 0; i < indices.size(); ++i) {
    const size_t src = indices[i];
    for (size_t j = 0; j < n; ++j) {
      x_node->grad[src * n + j] += node->grad[i * n + j];
    }
  }
}

void BackwardRowScatterAdd(Node* node) {
  Node* x_node = node->parents[0].get();
  if (!WantsGrad(*x_node)) return;
  const size_t n = node->cols;
  const std::vector<uint32_t>& indices = node->aux_indices;
  for (size_t i = 0; i < indices.size(); ++i) {
    const size_t dst = indices[i];
    for (size_t j = 0; j < n; ++j) {
      x_node->grad[i * n + j] += node->grad[dst * n + j];
    }
  }
}

void BackwardRowScatterAddTo(Node* node) {
  Node* base_node = node->parents[0].get();
  Node* x_node = node->parents[1].get();
  const size_t n = node->cols;
  if (WantsGrad(*base_node)) {
    for (size_t i = 0; i < node->size(); ++i) {
      base_node->grad[i] += node->grad[i];
    }
  }
  if (WantsGrad(*x_node)) {
    const std::vector<uint32_t>& indices = node->aux_indices;
    for (size_t i = 0; i < indices.size(); ++i) {
      const size_t dst = indices[i];
      for (size_t j = 0; j < n; ++j) {
        x_node->grad[i * n + j] += node->grad[dst * n + j];
      }
    }
  }
}

void BackwardScaleRows(Node* node) {
  Node* x_node = node->parents[0].get();
  if (!WantsGrad(*x_node)) return;
  const size_t n = node->cols;
  const std::vector<float>& factors = node->aux_floats;
  for (size_t i = 0; i < factors.size(); ++i) {
    const float factor = factors[i];
    for (size_t j = 0; j < n; ++j) {
      x_node->grad[i * n + j] += node->grad[i * n + j] * factor;
    }
  }
}

void BackwardConcatCols(Node* node) {
  const size_t m = node->rows;
  const size_t total_cols = node->cols;
  size_t col_offset = 0;
  for (const auto& parent : node->parents) {
    const size_t part_cols = parent->cols;
    if (WantsGrad(*parent)) {
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < part_cols; ++j) {
          parent->grad[i * part_cols + j] +=
              node->grad[i * total_cols + col_offset + j];
        }
      }
    }
    col_offset += part_cols;
  }
}

void BackwardMseLoss(Node* node) {
  Node* pred = node->parents[0].get();
  Node* target = node->parents[1].get();
  if (!WantsGrad(*pred)) return;
  const size_t count = pred->rows;
  const float scale = node->grad[0] * 2.0f / static_cast<float>(count);
  for (size_t i = 0; i < count; ++i) {
    pred->grad[i] += scale * (pred->values[i] - target->values[i]);
  }
}

void BackwardHuberLoss(Node* node) {
  Node* pred = node->parents[0].get();
  Node* target = node->parents[1].get();
  if (!WantsGrad(*pred)) return;
  HuberGradAccumulate(pred->values.data(), target->values.data(), pred->rows,
                      node->f0, node->grad[0], pred->grad.data());
}

}  // namespace

void RunNodeBackward(Node* node) {
  switch (node->tag) {
    case BackwardTag::kLeaf:
      return;
    case BackwardTag::kMatMul:
      return BackwardMatMul(node);
    case BackwardTag::kAddBias:
      return BackwardAddBias(node);
    case BackwardTag::kLinearFused:
      return BackwardLinearFused(node);
    case BackwardTag::kAdd:
      return BackwardAdd(node);
    case BackwardTag::kScale:
      return BackwardScale(node);
    case BackwardTag::kRelu:
      return BackwardRelu(node);
    case BackwardTag::kRowGather:
      return BackwardRowGather(node);
    case BackwardTag::kRowScatterAdd:
      return BackwardRowScatterAdd(node);
    case BackwardTag::kRowScatterAddTo:
      return BackwardRowScatterAddTo(node);
    case BackwardTag::kScaleRows:
      return BackwardScaleRows(node);
    case BackwardTag::kConcatCols:
      return BackwardConcatCols(node);
    case BackwardTag::kMseLoss:
      return BackwardMseLoss(node);
    case BackwardTag::kHuberLoss:
      return BackwardHuberLoss(node);
  }
  ZDB_CHECK(false) << "unknown backward tag";
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ZDB_CHECK_EQ(a.cols(), b.rows())
      << "MatMul shape mismatch " << a.ShapeString() << " x "
      << b.ShapeString();
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  Tensor out = MakeOpResult(m, n, "matmul", BackwardTag::kMatMul, {&a, &b});
  MatMulAccumulate(a.data().data(), m, k, b.data().data(), n,
                   out.mutable_data().data());
  return out;
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  ZDB_CHECK_EQ(bias.rows(), 1u);
  ZDB_CHECK_EQ(bias.cols(), x.cols());
  const size_t m = x.rows();
  const size_t n = x.cols();
  Tensor out =
      MakeOpResult(m, n, "add_bias", BackwardTag::kAddBias, {&x, &bias});
  // Row-at-a-time over raw pointers: the j loop is two contiguous streams
  // plus one store, which vectorizes cleanly.
  const float* x_ptr = x.data().data();
  const float* b_ptr = bias.data().data();
  float* out_ptr = out.mutable_data().data();
  for (size_t i = 0; i < m; ++i) {
    const float* x_row = x_ptr + i * n;
    float* out_row = out_ptr + i * n;
    for (size_t j = 0; j < n; ++j) {
      out_row[j] = x_row[j] + b_ptr[j];
    }
  }
  return out;
}

Tensor LinearFused(const Tensor& x, const Tensor& weight, const Tensor& bias,
                   bool relu) {
  ZDB_CHECK_EQ(x.cols(), weight.rows())
      << "LinearFused shape mismatch " << x.ShapeString() << " x "
      << weight.ShapeString();
  ZDB_CHECK_EQ(bias.rows(), 1u);
  ZDB_CHECK_EQ(bias.cols(), weight.cols());
  const size_t m = x.rows();
  const size_t n = weight.cols();
  Tensor out = MakeOpResult(m, n, "linear_fused", BackwardTag::kLinearFused,
                            {&x, &weight, &bias});
  out.node()->u0 = relu ? 1 : 0;
  LinearForward(x.data().data(), m, weight, bias, relu,
                out.mutable_data().data());
  return out;
}

void LinearForward(const float* x, size_t m, const Tensor& weight,
                   const Tensor& bias, bool relu, float* out) {
  ZDB_CHECK_EQ(bias.size(), weight.cols());
  const size_t k = weight.rows();
  const size_t n = weight.cols();
  std::fill(out, out + m * n, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    DenseRow(x + i * k, k, weight.data().data(), n, bias.data().data(), relu,
             out + i * n);
  }
}

// One sweep over the output rows computes the activation-gated dZ row in
// `dz` and immediately feeds it to all three gradient accumulations while it
// is still in cache, instead of materializing the full (m, n) dZ and
// streaming it three times. dX rows are independent, and dW / db accumulate
// batch-row-outermost, the order a full X^T * dZ product would use.
void LinearBackward(const float* x, const float* out, const float* dout,
                    size_t m, size_t k, size_t n, const float* weight,
                    bool relu, float* dx, float* dw, float* db, float* dz) {
  for (size_t i = 0; i < m; ++i) {
    const float* grad_row = dout + i * n;
    const float* out_row = out + i * n;
    // dZ = dOut gated by the activation. The mask comes from the stored
    // *post*-ReLU values: out > 0 iff the pre-activation was > 0, and both
    // conventions pass zero gradient at exactly 0 — identical to Relu's
    // backward on the pre-activation.
    if (relu) {
      for (size_t j = 0; j < n; ++j) {
        dz[j] = out_row[j] > 0.0f ? grad_row[j] : 0.0f;
      }
    } else {
      for (size_t j = 0; j < n; ++j) dz[j] = grad_row[j];
    }
    if (dx != nullptr) {
      // dX_i += dZ_i * W^T
      MatMulTransBAccumulate(dz, 1, n, weight, k, dx + i * k);
    }
    if (dw != nullptr) {
      // dW += X_i^T * dZ_i (rank-1 update, same k-outer order as the full
      // X^T * dZ accumulation)
      MatMulTransAAccumulate(x + i * k, 1, k, dz, n, dw);
    }
    if (db != nullptr) {
      for (size_t j = 0; j < n; ++j) db[j] += dz[j];
    }
  }
}

Tensor Add(const Tensor& a, const Tensor& b) {
  ZDB_CHECK_EQ(a.rows(), b.rows());
  ZDB_CHECK_EQ(a.cols(), b.cols());
  const size_t count = a.size();
  Tensor out = MakeOpResult(a.rows(), a.cols(), "add", BackwardTag::kAdd,
                            {&a, &b});
  auto& out_data = out.mutable_data();
  for (size_t i = 0; i < count; ++i) {
    out_data[i] = a.data()[i] + b.data()[i];
  }
  return out;
}

Tensor Scale(const Tensor& x, float factor) {
  const size_t count = x.size();
  Tensor out = MakeOpResult(x.rows(), x.cols(), "scale", BackwardTag::kScale,
                            {&x});
  out.node()->f0 = factor;
  ScaleInto(x.data().data(), count, factor, out.mutable_data().data());
  return out;
}

Tensor Relu(const Tensor& x) {
  // The select compiles to a branch-free vector max.
  const size_t count = x.size();
  Tensor out =
      MakeOpResult(x.rows(), x.cols(), "relu", BackwardTag::kRelu, {&x});
  const float* x_ptr = x.data().data();
  float* out_ptr = out.mutable_data().data();
  for (size_t i = 0; i < count; ++i) {
    out_ptr[i] = x_ptr[i] > 0.0f ? x_ptr[i] : 0.0f;
  }
  return out;
}

Tensor RowGather(const Tensor& x, std::vector<uint32_t> indices) {
  const size_t n = x.cols();
  const size_t out_rows = indices.size();
  for (uint32_t index : indices) ZDB_CHECK_LT(index, x.rows());
  Tensor out =
      MakeOpResult(out_rows, n, "row_gather", BackwardTag::kRowGather, {&x});
  auto& out_data = out.mutable_data();
  const auto& x_data = x.data();
  for (size_t i = 0; i < out_rows; ++i) {
    const size_t src = indices[i];
    for (size_t j = 0; j < n; ++j) {
      out_data[i * n + j] = x_data[src * n + j];
    }
  }
  out.node()->aux_indices = std::move(indices);
  return out;
}

Tensor RowScatterAdd(const Tensor& x, std::vector<uint32_t> indices,
                     size_t out_rows) {
  ZDB_CHECK_EQ(indices.size(), x.rows());
  const size_t n = x.cols();
  for (uint32_t index : indices) ZDB_CHECK_LT(index, out_rows);
  Tensor out = MakeOpResult(out_rows, n, "row_scatter_add",
                            BackwardTag::kRowScatterAdd, {&x});
  auto& out_data = out.mutable_data();
  const auto& x_data = x.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const size_t dst = indices[i];
    for (size_t j = 0; j < n; ++j) {
      out_data[dst * n + j] += x_data[i * n + j];
    }
  }
  out.node()->aux_indices = std::move(indices);
  return out;
}

Tensor RowScatterAddTo(const Tensor& base, const Tensor& x,
                       std::vector<uint32_t> indices) {
  ZDB_CHECK_EQ(indices.size(), x.rows());
  ZDB_CHECK_EQ(base.cols(), x.cols());
  const size_t n = x.cols();
  for (uint32_t index : indices) ZDB_CHECK_LT(index, base.rows());
  Tensor out = MakeOpResult(base.rows(), n, "row_scatter_add_to",
                            BackwardTag::kRowScatterAddTo, {&base, &x});
  auto& out_data = out.mutable_data();
  out_data = base.data();
  const auto& x_data = x.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const size_t dst = indices[i];
    for (size_t j = 0; j < n; ++j) {
      out_data[dst * n + j] += x_data[i * n + j];
    }
  }
  out.node()->aux_indices = std::move(indices);
  return out;
}

Tensor ScaleRows(const Tensor& x, std::vector<float> factors) {
  ZDB_CHECK_EQ(factors.size(), x.rows());
  const size_t n = x.cols();
  Tensor out = MakeOpResult(x.rows(), n, "scale_rows",
                            BackwardTag::kScaleRows, {&x});
  auto& out_data = out.mutable_data();
  const auto& x_data = x.data();
  for (size_t i = 0; i < factors.size(); ++i) {
    const float factor = factors[i];
    for (size_t j = 0; j < n; ++j) {
      out_data[i * n + j] = x_data[i * n + j] * factor;
    }
  }
  out.node()->aux_floats = std::move(factors);
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  ZDB_CHECK(!parts.empty());
  const size_t m = parts[0].rows();
  size_t total_cols = 0;
  for (const Tensor& part : parts) {
    ZDB_CHECK_EQ(part.rows(), m);
    total_cols += part.cols();
  }
  Tensor out = MakeOpResult(m, total_cols, "concat_cols",
                            BackwardTag::kConcatCols, parts);
  auto& out_data = out.mutable_data();
  size_t col_offset = 0;
  for (const Tensor& part : parts) {
    const size_t part_cols = part.cols();
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < part_cols; ++j) {
        out_data[i * total_cols + col_offset + j] =
            part.data()[i * part_cols + j];
      }
    }
    col_offset += part_cols;
  }
  return out;
}

Tensor MseLoss(const Tensor& predictions, const Tensor& targets) {
  ZDB_CHECK_EQ(predictions.rows(), targets.rows());
  ZDB_CHECK_EQ(predictions.cols(), 1u);
  ZDB_CHECK_EQ(targets.cols(), 1u);
  const size_t count = predictions.rows();
  ZDB_CHECK_GT(count, 0u);
  Tensor out = MakeOpResult(1, 1, "mse_loss", BackwardTag::kMseLoss,
                            {&predictions, &targets});
  double total = 0.0;
  for (size_t i = 0; i < count; ++i) {
    double diff = predictions.data()[i] - targets.data()[i];
    total += diff * diff;
  }
  out.mutable_data()[0] =
      static_cast<float>(total / static_cast<double>(count));
  return out;
}

Tensor HuberLoss(const Tensor& predictions, const Tensor& targets,
                 float delta) {
  ZDB_CHECK_EQ(predictions.rows(), targets.rows());
  ZDB_CHECK_EQ(predictions.cols(), 1u);
  ZDB_CHECK_EQ(targets.cols(), 1u);
  ZDB_CHECK_GT(delta, 0.0f);
  const size_t count = predictions.rows();
  ZDB_CHECK_GT(count, 0u);
  Tensor out = MakeOpResult(1, 1, "huber_loss", BackwardTag::kHuberLoss,
                            {&predictions, &targets});
  out.node()->f0 = delta;
  out.mutable_data()[0] =
      HuberLossValue(predictions.data(), targets.data(), delta);
  return out;
}

float HuberLossValue(std::span<const float> predictions,
                     std::span<const float> targets, float delta) {
  ZDB_CHECK_EQ(predictions.size(), targets.size());
  const size_t count = predictions.size();
  ZDB_CHECK_GT(count, 0u);
  double total = 0.0;
  for (size_t i = 0; i < count; ++i) {
    double diff = std::fabs(predictions[i] - targets[i]);
    if (diff <= delta) {
      total += 0.5 * diff * diff;
    } else {
      total += delta * (diff - 0.5 * delta);
    }
  }
  return static_cast<float>(total / static_cast<double>(count));
}

float ScaledHuberLossBackward(std::span<const float> predictions,
                              std::span<const float> targets, float delta,
                              float scale, std::span<float> grad) {
  ZDB_CHECK_EQ(grad.size(), predictions.size());
  const float loss = HuberLossValue(predictions, targets, delta);
  // Backward seeds d(scaled) = 1; Scale's backward adds 1 * scale into the
  // loss node's zeroed gradient, which HuberLoss's backward then reads.
  float scaled = 0.0f;
  ScaleInto(&loss, 1, scale, &scaled);
  const float seed = 1.0f;
  float upstream = 0.0f;
  ScaleAccumulate(&seed, 1, scale, &upstream);
  HuberGradAccumulate(predictions.data(), targets.data(), predictions.size(),
                      delta, upstream, grad.data());
  return scaled;
}

float BackwardScaled(const Tensor& loss, float scale) {
  Tensor scaled = Scale(loss, scale);
  scaled.Backward();
  return scaled.item();
}

}  // namespace zerodb::nn
