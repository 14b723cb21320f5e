#ifndef ZERODB_NN_OPTIMIZER_H_
#define ZERODB_NN_OPTIMIZER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "nn/tensor.h"

namespace zerodb::nn {

/// Gradient-descent optimizer interface over a fixed parameter set.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> parameters)
      : parameters_(std::move(parameters)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients.
  virtual void Step() = 0;

  /// Clears all parameter gradients; call after Step.
  void ZeroGrad();

  /// Clips the global L2 norm of all gradients to `max_norm`; returns the
  /// pre-clipping norm. A stabilizer for the message-passing nets.
  double ClipGradNorm(double max_norm);

  const std::vector<Tensor>& parameters() const { return parameters_; }

 protected:
  std::vector<Tensor> parameters_;
};

/// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Tensor> parameters, float learning_rate,
      float momentum = 0.0f);

  void Step() override;

 private:
  float learning_rate_;
  float momentum_;
  std::vector<std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba) with bias correction; the paper's models train with it.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> parameters, float learning_rate,
       float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f,
       float weight_decay = 0.0f);

  void Step() override;

  int64_t step_count() const { return step_count_; }

 private:
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
