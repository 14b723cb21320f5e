#ifndef ZERODB_NN_TENSOR_H_
#define ZERODB_NN_TENSOR_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace zerodb::nn {

/// A 2-D float matrix plus, for parameters, a gradient buffer of the same
/// size. Value-semantics handle: copies share the storage, like torch
/// tensors, so the Parameters() a model hands out are its live weights and
/// gradients for the optimizer, the trainer and serialization alike. All
/// shapes are (rows, cols); vectors are (1, n) or (n, 1).
class Tensor {
 public:
  /// Null handle; use the factories below.
  Tensor() = default;

  static Tensor Zeros(size_t rows, size_t cols);
  /// A zero tensor with t's shape.
  static Tensor ZerosLike(const Tensor& t);

  /// A tensor wrapping the given row-major data, with no gradient buffer.
  static Tensor FromData(size_t rows, size_t cols, std::vector<float> data);

  /// A trainable parameter initialized with `data`, with a zeroed gradient
  /// buffer.
  static Tensor Parameter(size_t rows, size_t cols, std::vector<float> data);

  size_t rows() const { return storage_->rows; }
  size_t cols() const { return storage_->cols; }
  size_t size() const { return storage_->rows * storage_->cols; }

  const std::vector<float>& data() const { return storage_->values; }
  std::vector<float>& mutable_data() { return storage_->values; }
  const std::vector<float>& grad() const { return storage_->grad; }
  std::vector<float>& mutable_grad() { return storage_->grad; }

  /// Zeroes the gradient buffer.
  void ZeroGrad();

  std::string ShapeString() const;

 private:
  struct Storage {
    size_t rows = 0;
    size_t cols = 0;
    std::vector<float> values;
    std::vector<float> grad;  // parameters only: same size as values
  };

  Tensor(size_t rows, size_t cols, std::vector<float> values);

  std::shared_ptr<Storage> storage_;
};

}  // namespace zerodb::nn

#endif  // ZERODB_NN_TENSOR_H_
