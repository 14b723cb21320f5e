#ifndef ZERODB_NN_LAYERS_H_
#define ZERODB_NN_LAYERS_H_

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace zerodb::nn {

/// Fully-connected layer y = x W + b with Kaiming-uniform initialization;
/// Mlp runs it through LinearForward and LinearBackward.
class Linear {
 public:
  /// Creates an uninitialized layer; call Init or deserialize before use.
  Linear() = default;
  Linear(size_t in_features, size_t out_features, Rng* rng);

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

/// The activations of one Mlp::ForwardRows call, which BackwardRows reads:
/// one (rows, out_features) buffer per layer, the last holding the output.
/// Reused across calls; the buffers only ever grow.
struct MlpTape {
  size_t rows = 0;
  std::vector<std::vector<float>> layers;

  const float* output() const { return layers.back().data(); }
};

/// Multilayer perceptron built from Linear layers: ReLU after every hidden
/// layer, a linear output layer.
class Mlp {
 public:
  Mlp() = default;
  Mlp(const MlpConfig& config, Rng* rng);

  /// Forward over `rows` rows of in_features floats, recording every
  /// layer's output in `tape`. Each layer runs LinearForward, with the ReLU
  /// fused into the hidden layers. Aborts unless x holds exactly
  /// rows * in_features floats.
  void ForwardRows(std::span<const float> x, size_t rows,
                   MlpTape* tape) const;

  /// The backward of the ForwardRows call that filled `tape` from `x`:
  /// given the output's gradient `dout` (rows, out_features), adds every
  /// layer's dW and db into its parameters' grad buffers and, unless `dx` is
  /// null, dX into `dx` (rows, in_features). Each layer runs LinearBackward,
  /// layer by layer from the output down. Hidden-layer gradients live in
  /// `scratch`, which only ever grows.
  void BackwardRows(const float* x, const MlpTape& tape, const float* dout,
                    float* dx, std::vector<float>* scratch) const;

  std::vector<Tensor> Parameters() const;

  const MlpConfig& config() const { return config_; }

 private:
  MlpConfig config_;
  std::vector<Linear> layers_;
};

}  // namespace zerodb::nn

#endif  // ZERODB_NN_LAYERS_H_
