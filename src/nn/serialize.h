#ifndef ZERODB_NN_SERIALIZE_H_
#define ZERODB_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace zerodb::nn {

/// Writes the parameter tensors (shapes + float data) to a binary file.
/// Format: magic, count, then per tensor rows/cols/values. Models own their
/// hyperparameters; this only persists weights, so load must be called on a
/// structurally identical model.
Status SaveParameters(const std::vector<Tensor>& parameters,
                      const std::string& path);

/// Loads parameters saved by SaveParameters into the given tensors in order.
/// Fails if the count or any shape mismatches, if any value is NaN or
/// infinite, or if the file is truncated or has trailing bytes. All or
/// nothing: on failure no tensor is changed.
Status LoadParameters(std::vector<Tensor> parameters, const std::string& path);

}  // namespace zerodb::nn

#endif  // ZERODB_NN_SERIALIZE_H_
