#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"

namespace zerodb::nn {

Adam::Adam(std::vector<Tensor> parameters, float learning_rate, float beta1,
           float beta2, float epsilon, float weight_decay)
    : parameters_(std::move(parameters)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  first_moment_.reserve(parameters_.size());
  second_moment_.reserve(parameters_.size());
  for (const Tensor& parameter : parameters_) {
    first_moment_.emplace_back(parameter.size(), 0.0f);
    second_moment_.emplace_back(parameter.size(), 0.0f);
  }
}

void Adam::Step() {
  ++step_count_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  const float corrected_lr =
      static_cast<float>(learning_rate_ * std::sqrt(bias2) / bias1);
  for (size_t p = 0; p < parameters_.size(); ++p) {
    auto& data = parameters_[p].mutable_data();
    const auto& grad = parameters_[p].grad();
    ZDB_CHECK_EQ(data.size(), grad.size());
    auto& m = first_moment_[p];
    auto& v = second_moment_[p];
    for (size_t i = 0; i < data.size(); ++i) {
      float g = grad[i] + weight_decay_ * data[i];
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g;
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g * g;
      data[i] -= corrected_lr * m[i] / (std::sqrt(v[i]) + epsilon_);
    }
  }
}

void Adam::ZeroGrad() {
  for (Tensor& parameter : parameters_) parameter.ZeroGrad();
}

double Adam::ClipGradNorm(double max_norm) {
  ZDB_CHECK_GT(max_norm, 0.0);
  double total_sq = 0.0;
  for (const Tensor& parameter : parameters_) {
    for (float g : parameter.grad()) total_sq += static_cast<double>(g) * g;
  }
  double norm = std::sqrt(total_sq);
  if (norm > max_norm) {
    const float scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (Tensor& parameter : parameters_) {
      for (float& g : parameter.mutable_grad()) g *= scale;
    }
  }
  return norm;
}

}  // namespace zerodb::nn
