#ifndef ZERODB_NN_LAYERS_H_
#define ZERODB_NN_LAYERS_H_

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace zerodb::nn {

/// Fully-connected layer y = x W + b with Kaiming-uniform initialization.
class Linear {
 public:
  /// Creates an uninitialized layer; call Init or deserialize before use.
  Linear() = default;
  Linear(size_t in_features, size_t out_features, Rng* rng);

  /// y = x W + b, with the ReLU fused into the same kernel pass when
  /// `fuse_relu` is set (numerically identical to Relu(Forward(x))).
  Tensor Forward(const Tensor& x, bool fuse_relu = false) const;

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

  /// Trainable parameters: {weight (in,out), bias (1,out)}.
  std::vector<Tensor> Parameters() const { return {weight_, bias_}; }

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  size_t in_features_ = 0;
  size_t out_features_ = 0;
  Tensor weight_;
  Tensor bias_;
};

/// Configuration for a multilayer perceptron.
struct MlpConfig {
  size_t in_features = 0;
  std::vector<size_t> hidden_sizes;  // one entry per hidden layer
  size_t out_features = 0;
};

/// Multilayer perceptron built from Linear layers: ReLU after every hidden
/// layer, a linear output layer.
class Mlp {
 public:
  Mlp() = default;
  Mlp(const MlpConfig& config, Rng* rng);

  Tensor Forward(const Tensor& x) const;

  /// Forward on one raw row, with no graph nodes: `x` holds in_features
  /// floats and `out` receives out_features. Each layer runs LinearRow, so
  /// `out` is bit-identical to the matching row of Forward. The hidden
  /// activations ping-pong through `scratch`, which only ever grows.
  void ForwardRow(std::span<const float> x, std::span<float> out,
                  std::vector<float>* scratch) const;

  std::vector<Tensor> Parameters() const;

  const MlpConfig& config() const { return config_; }

 private:
  MlpConfig config_;
  std::vector<Linear> layers_;
};

}  // namespace zerodb::nn

#endif  // ZERODB_NN_LAYERS_H_
