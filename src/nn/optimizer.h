#ifndef ZERODB_NN_OPTIMIZER_H_
#define ZERODB_NN_OPTIMIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nn/parameters.h"

namespace zerodb::nn {

/// Sums shard-partial gradients into `out` in ascending shard order:
/// out[j] = ((0.0f + partials[0][j]) + partials[1][j]) + ..., exactly the
/// floats a zeroed buffer followed by one `+=` pass per shard produces, in a
/// single vectorized pass. Every partial must hold out.size() floats.
/// Returns false when any sum is NaN or infinite (the sums are written
/// either way), so a finite-gradient check costs no second pass.
[[nodiscard]] bool SumShardGradients(std::span<const float* const> partials,
                                     std::span<float> out);

/// Adam (Kingma & Ba) with bias correction over one parameter block; the
/// paper's models train with it. The block must outlive the optimizer and
/// keep its size; its gradient vector may be swapped between calls.
class Adam {
 public:
  Adam(ParameterBlock* parameters, float learning_rate, float beta1 = 0.9f,
       float beta2 = 0.999f, float epsilon = 1e-8f, float weight_decay = 0.0f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update from the accumulated gradients, first scaling each
  /// gradient by the pending ClipGradNorm factor (if any) and storing the
  /// clipped value back — one pass over the block.
  void Step();

  /// Clears the block's gradients; call after Step.
  void ZeroGrad();

  /// Computes the global L2 norm of all gradients (a double sum of squares
  /// in block order) and, when it exceeds `max_norm`, clips the
  /// gradients to it: the next Step multiplies every gradient by the float
  /// factor max_norm / (norm + 1e-12) inside its update pass. Returns the
  /// pre-clipping norm. A stabilizer for the message-passing nets.
  double ClipGradNorm(double max_norm);

  /// The running first / second moments, laid out like the block
  /// (read-only; Step is the only writer).
  const std::vector<float>& first_moment() const { return first_moment_; }
  const std::vector<float>& second_moment() const { return second_moment_; }

 private:
  ParameterBlock* parameters_;
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  float weight_decay_;
  int64_t step_count_ = 0;
  /// Set by ClipGradNorm, consumed (and reset to 1) by the next Step.
  float clip_scale_ = 1.0f;
  std::vector<float> first_moment_;
  std::vector<float> second_moment_;
};

}  // namespace zerodb::nn

#endif  // ZERODB_NN_OPTIMIZER_H_
