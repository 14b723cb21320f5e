#ifndef ZERODB_NN_OPTIMIZER_H_
#define ZERODB_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace zerodb::nn {

/// Adam (Kingma & Ba) with bias correction over a fixed parameter set; the
/// paper's models train with it.
class Adam {
 public:
  Adam(std::vector<Tensor> parameters, float learning_rate,
       float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f,
       float weight_decay = 0.0f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update from the accumulated gradients.
  void Step();

  /// Clears all parameter gradients; call after Step.
  void ZeroGrad();

  /// Clips the global L2 norm of all gradients to `max_norm`; returns the
  /// pre-clipping norm. A stabilizer for the message-passing nets.
  double ClipGradNorm(double max_norm);

 private:
  std::vector<Tensor> parameters_;
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  float weight_decay_;
  int64_t step_count_ = 0;
  std::vector<std::vector<float>> first_moment_;
  std::vector<std::vector<float>> second_moment_;
};

}  // namespace zerodb::nn

#endif  // ZERODB_NN_OPTIMIZER_H_
