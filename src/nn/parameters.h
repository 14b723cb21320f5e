#ifndef ZERODB_NN_PARAMETERS_H_
#define ZERODB_NN_PARAMETERS_H_

#include <cstddef>
#include <vector>

namespace zerodb::nn {

/// A model's trainable parameters in one contiguous block: every Linear
/// layer's weight (in, out) then bias (out), layer by layer in construction
/// order, which is also the order of their Kaiming-init draws. `grads` has
/// the same layout. Layers keep offsets into the block and receive it per
/// call, so a caller may swap out the whole `grads` vector between calls.
struct ParameterBlock {
  std::vector<float> values;
  std::vector<float> grads;

  size_t size() const { return values.size(); }
};

}  // namespace zerodb::nn

#endif  // ZERODB_NN_PARAMETERS_H_
