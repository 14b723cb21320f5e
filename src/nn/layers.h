#ifndef ZERODB_NN_LAYERS_H_
#define ZERODB_NN_LAYERS_H_

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/parameters.h"

namespace zerodb::nn {

/// Fully-connected layer y = x W + b with Kaiming-uniform initialization;
/// Mlp runs it through LinearForward and LinearBackward. The layer owns no
/// floats: its weight (in, out) and bias (out) sit back to back in a
/// ParameterBlock, at weight_offset().
class Linear {
 public:
  /// Appends the layer's weight then bias to `block`, drawn in that order.
  Linear(size_t in_features, size_t out_features, Rng* rng,
         ParameterBlock* block);

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }
  size_t weight_offset() const { return weight_offset_; }
  size_t bias_offset() const {
    return weight_offset_ + in_features_ * out_features_;
  }

 private:
  size_t in_features_;
  size_t out_features_;
  size_t weight_offset_;
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
/// layer, a linear output layer. Its parameters live in the ParameterBlock
/// it was built into, which every pass receives.
class Mlp {
 public:
  Mlp() = default;
  /// Appends every layer's parameters to `block`, input layer first.
  Mlp(const MlpConfig& config, Rng* rng, ParameterBlock* block);

  /// Forward over `rows` rows of in_features floats, recording every
  /// layer's output in `tape`. Each layer runs LinearForward, with the ReLU
  /// fused into the hidden layers. Aborts unless x holds exactly
  /// rows * in_features floats.
  void ForwardRows(const ParameterBlock& params, std::span<const float> x,
                   size_t rows, MlpTape* tape) const;

  /// The backward of the ForwardRows call that filled `tape` from `x`:
  /// given the output's gradient `dout` (rows, out_features), adds every
  /// layer's dW and db into params->grads and, unless `dx` is null, dX into
  /// `dx` (rows, in_features). Each layer runs LinearBackward, layer by
  /// layer from the output down. Hidden-layer gradients live in `scratch`,
  /// which only ever grows.
  void BackwardRows(ParameterBlock* params, const float* x,
                    const MlpTape& tape, const float* dout, float* dx,
                    std::vector<float>* scratch) const;

  const MlpConfig& config() const { return config_; }

 private:
  MlpConfig config_;
  std::vector<Linear> layers_;
};

}  // namespace zerodb::nn

#endif  // ZERODB_NN_LAYERS_H_
