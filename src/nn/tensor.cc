#include "nn/tensor.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace zerodb::nn {

Tensor::Tensor(size_t rows, size_t cols, std::vector<float> values)
    : storage_(std::make_shared<Storage>()) {
  ZDB_CHECK_EQ(rows * cols, values.size())
      << "shape (" << rows << ", " << cols << ") vs " << values.size()
      << " values";
  storage_->rows = rows;
  storage_->cols = cols;
  storage_->values = std::move(values);
}

Tensor Tensor::Zeros(size_t rows, size_t cols) {
  return Tensor(rows, cols, std::vector<float>(rows * cols));
}

Tensor Tensor::ZerosLike(const Tensor& t) { return Zeros(t.rows(), t.cols()); }

Tensor Tensor::FromData(size_t rows, size_t cols, std::vector<float> data) {
  return Tensor(rows, cols, std::move(data));
}

Tensor Tensor::Parameter(size_t rows, size_t cols, std::vector<float> data) {
  Tensor t(rows, cols, std::move(data));
  t.storage_->grad = std::vector<float>(rows * cols);
  return t;
}

void Tensor::ZeroGrad() {
  std::fill(storage_->grad.begin(), storage_->grad.end(), 0.0f);
}

std::string Tensor::ShapeString() const {
  return StrFormat("(%zu, %zu)", rows(), cols());
}

}  // namespace zerodb::nn
