#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace zerodb::nn {

namespace {

// c_row += a_row * B for a row-major B. Register-blocked over k: four A
// scalars are broadcast against four consecutive B rows per pass, so the
// inner j loop is a branch-free chain of contiguous loads that -O3
// auto-vectorizes; the old per-element `a_ik == 0` skip is hoisted to one
// whole-block test, which still short-circuits the mostly-zero one-hot
// encoder inputs without defeating vectorization. Blocking over k changes
// float summation order versus a scalar k loop, so results match a
// reference matmul within tolerance, not bitwise
// (OpsTest.LinearForwardBlockedMatchesReference pins this). It works one
// output row at a time so DenseRow can apply bias+activation to the row
// while it is still in cache.
//
// kCols > 0 fixes the row width at compile time, so the j loops fully
// unroll and `c_row` can live in registers for the whole k loop; 0 reads
// the width from b_cols. Both run the same per-element expression in the
// same order.
//
// Every multiply-add in this file is an explicit std::fma and the file is
// built with -ffp-contract=off, so each result rounds the same way on every
// compiler, vector width and instrumentation: left to contraction, which
// products get fused follows the vectorizer's choices. With the host's FMA
// unit (-march=native) std::fma compiles to vfmadd and still vectorizes.
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
      const float sum = std::fma(
          a3, b3[j], std::fma(a2, b2[j], std::fma(a0, b0[j], a1 * b1[j])));
      c_row[j] += sum;
    }
  }
  for (; k < a_cols; ++k) {
    const float a_ik = a_row[k];
    if (a_ik == 0.0f) continue;
    const float* b_row = b + k * cols;
    for (size_t j = 0; j < cols; ++j) {
      c_row[j] = std::fma(a_ik, b_row[j], c_row[j]);
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
// when `relu`. The bias is added after the full k-accumulation. LinearForward
// runs it on every row.
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
        c_row[j] = std::fma(a_ki, b_row[j], c_row[j]);
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
        // Kept rolled so the loop vectorizer turns the 8 lanes into one
        // SIMD std::fma (fully unrolled, GCC 12's SLP pass leaves the
        // calls scalar).
#pragma GCC unroll 1
        for (size_t l = 0; l < 8; ++l) {
          lanes[l] = std::fma(a_row[k + l], b_row[k + l], lanes[l]);
        }
      }
      float dot = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                  ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
      for (; k < a_cols; ++k) {
        dot = std::fma(a_row[k], b_row[k], dot);
      }
      c_row[j] += dot;
    }
  }
}

// Adds the mean Huber loss's gradient, times the upstream d(out)/d(loss),
// into `grad`.
void HuberGradAccumulate(const float* predictions, const float* targets,
                         size_t count, float delta, float upstream,
                         float* grad) {
  const float scale = upstream / static_cast<float>(count);
  for (size_t i = 0; i < count; ++i) {
    float diff = predictions[i] - targets[i];
    float g = std::fabs(diff) <= delta ? diff : (diff > 0.0f ? delta : -delta);
    grad[i] = std::fma(scale, g, grad[i]);
  }
}

}  // namespace

void LinearForward(const float* x, size_t m, size_t k, size_t n,
                   const float* weight, const float* bias, bool relu,
                   float* out) {
  std::fill(out, out + m * n, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    DenseRow(x + i * k, k, weight, n, bias, relu, out + i * n);
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
    // conventions pass zero gradient at exactly 0 — the same mask as the
    // ReLU derivative taken on the pre-activation.
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

float HuberLossValue(std::span<const float> predictions,
                     std::span<const float> targets, float delta) {
  ZDB_CHECK_EQ(predictions.size(), targets.size());
  const size_t count = predictions.size();
  ZDB_CHECK_GT(count, 0u);
  double total = 0.0;
  for (size_t i = 0; i < count; ++i) {
    double diff = std::fabs(predictions[i] - targets[i]);
    if (diff <= delta) {
      total = std::fma(0.5 * diff, diff, total);
    } else {
      total = std::fma(static_cast<double>(delta), diff - 0.5 * delta, total);
    }
  }
  return static_cast<float>(total / static_cast<double>(count));
}

float ScaledHuberLossBackward(std::span<const float> predictions,
                              std::span<const float> targets, float delta,
                              float scale, std::span<float> grad) {
  ZDB_CHECK_EQ(grad.size(), predictions.size());
  const float loss = HuberLossValue(predictions, targets, delta);
  HuberGradAccumulate(predictions.data(), targets.data(), predictions.size(),
                      delta, scale, grad.data());
  return loss * scale;
}

void ScaleRowsInPlace(float* x, size_t stride, size_t n,
                      std::span<const float> factors) {
  for (size_t i = 0; i < factors.size(); ++i) {
    float* row = x + i * stride;
    const float factor = factors[i];
    for (size_t j = 0; j < n; ++j) row[j] *= factor;
  }
}

void ScaleRowsAccumulate(const float* g, size_t g_stride, size_t n,
                         std::span<const float> factors, float* out) {
  for (size_t i = 0; i < factors.size(); ++i) {
    const float* g_row = g + i * g_stride;
    float* out_row = out + i * n;
    const float factor = factors[i];
    for (size_t j = 0; j < n; ++j) {
      out_row[j] = std::fma(g_row[j], factor, out_row[j]);
    }
  }
}

}  // namespace zerodb::nn
