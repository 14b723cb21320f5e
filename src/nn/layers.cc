#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "nn/validate.h"

namespace zerodb::nn {

Linear::Linear(size_t in_features, size_t out_features, Rng* rng,
               ParameterBlock* block)
    : in_features_(in_features),
      out_features_(out_features),
      weight_offset_(block->size()) {
  ZDB_CHECK_GT(in_features, 0u);
  ZDB_CHECK_GT(out_features, 0u);
  ZDB_CHECK(rng != nullptr);
  // Kaiming-uniform fan-in initialization, matching torch's Linear default:
  // the weight's draws, then the bias's.
  const double bound = std::sqrt(1.0 / static_cast<double>(in_features));
  for (size_t i = 0; i < (in_features + 1) * out_features; ++i) {
    block->values.push_back(
        static_cast<float>(rng->UniformDouble(-bound, bound)));
  }
  block->grads.resize(block->size());
}

Mlp::Mlp(const MlpConfig& config, Rng* rng, ParameterBlock* block)
    : config_(config) {
  ZDB_CHECK_GT(config.in_features, 0u);
  ZDB_CHECK_GT(config.out_features, 0u);
  size_t in = config.in_features;
  for (size_t hidden : config.hidden_sizes) {
    layers_.emplace_back(in, hidden, rng, block);
    in = hidden;
  }
  layers_.emplace_back(in, config.out_features, rng, block);
}

void Mlp::ForwardRows(const ParameterBlock& params, std::span<const float> x,
                      size_t rows, MlpTape* tape) const {
  ZDB_CHECK(!layers_.empty()) << "Mlp used before initialization";
  ZDB_CHECK_LE(layers_.back().bias_offset() + config_.out_features,
               params.size())
      << "Mlp::ForwardRows: parameters past the block's end";
  ZDB_CHECK_EQ(x.size(), rows * config_.in_features)
      << "Mlp::ForwardRows input: expected " << config_.in_features
      << " feature columns over " << rows << " rows";
  ZDB_DCHECK_OK(ValidateFinite(x, "Mlp::ForwardRows input"));
  tape->rows = rows;
  tape->layers.resize(layers_.size());
  const float* current = x.data();
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Linear& layer = layers_[i];
    std::vector<float>& out = tape->layers[i];
    out.resize(rows * layer.out_features());
    const bool is_output = (i + 1 == layers_.size());
    LinearForward(current, rows, layer.in_features(), layer.out_features(),
                  params.values.data() + layer.weight_offset(),
                  params.values.data() + layer.bias_offset(),
                  /*relu=*/!is_output, out.data());
    current = out.data();
  }
  ZDB_DCHECK_OK(ValidateFinite(tape->layers.back(), "Mlp::ForwardRows output"));
}

void Mlp::BackwardRows(ParameterBlock* params, const float* x,
                       const MlpTape& tape, const float* dout, float* dx,
                       std::vector<float>* scratch) const {
  ZDB_CHECK_EQ(tape.layers.size(), layers_.size());
  ZDB_CHECK_LE(layers_.back().bias_offset() + config_.out_features,
               std::min(params->size(), params->grads.size()))
      << "Mlp::BackwardRows: parameters past the block's end";
  const size_t rows = tape.rows;
  size_t width = config_.out_features;
  for (size_t hidden : config_.hidden_sizes) width = std::max(width, hidden);
  // [dZ row | hidden-gradient ping-pong pair]
  if (scratch->size() < width + 2 * rows * width) {
    scratch->resize(width + 2 * rows * width);
  }
  float* dz = scratch->data();
  const float* layer_dout = dout;
  for (size_t i = layers_.size(); i-- > 0;) {
    const Linear& layer = layers_[i];
    const float* input = i == 0 ? x : tape.layers[i - 1].data();
    // The gradient of this layer's input: the caller's `dx` for the first
    // layer, else a zeroed buffer that the next iteration reads as dout.
    float* layer_dx = dx;
    if (i > 0) {
      layer_dx = scratch->data() + width + (i % 2) * rows * width;
      std::fill(layer_dx, layer_dx + rows * layer.in_features(), 0.0f);
    }
    LinearBackward(input, tape.layers[i].data(), layer_dout, rows,
                   layer.in_features(), layer.out_features(),
                   params->values.data() + layer.weight_offset(),
                   /*relu=*/i + 1 != layers_.size(), layer_dx,
                   params->grads.data() + layer.weight_offset(),
                   params->grads.data() + layer.bias_offset(), dz);
    layer_dout = layer_dx;
  }
}

}  // namespace zerodb::nn
