#ifndef ZERODB_NN_TENSOR_H_
#define ZERODB_NN_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace zerodb::nn {

/// Identifies the backward rule of the op that produced a node. Backward is
/// dispatched by a switch over this tag (RunNodeBackward in ops.cc) with the
/// op's context in the node's POD fields and aux buffers — no std::function,
/// so building a graph node allocates no closure.
enum class BackwardTag : uint8_t {
  kLeaf = 0,
  kMatMul,
  kAddBias,
  kLinearFused,
  kAdd,
  kScale,
  kRelu,
  kRowGather,
  kRowScatterAdd,
  kRowScatterAddTo,
  kScaleRows,
  kConcatCols,
  kMseLoss,
  kHuberLoss,
};

/// A node in the autograd graph: a 2-D float matrix plus (optionally) a
/// gradient buffer, the backward tag/context of the op that produced it, and
/// its parents. Users interact through the `Tensor` handle below.
struct Node {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<float> values;
  std::vector<float> grad;  // same size as values when requires_grad
  bool requires_grad = false;

  /// Backward dispatch tag plus small POD context. f0 carries the op scalar
  /// (Scale factor, Huber delta); u0 carries an op flag
  /// (LinearFused: 1 when ReLU is fused). Shapes are recovered from this
  /// node and its parents.
  BackwardTag tag = BackwardTag::kLeaf;
  float f0 = 0.0f;
  uint32_t u0 = 0;

  /// Per-op auxiliary data that used to live in backward closures: ScaleRows
  /// factors in aux_floats; gather/scatter row indices in aux_indices.
  std::vector<float> aux_floats;
  std::vector<uint32_t> aux_indices;

  /// Parents in the compute graph (inputs of the producing op); empty for
  /// leaves (parameters and constants).
  std::vector<std::shared_ptr<Node>> parents;

  /// Traversal epoch for Backward()'s iterative topo walk (replaces a
  /// per-call visited hash set).
  uint64_t visit_mark = 0;

  /// Op name for debugging ("matmul", "relu", ..., "leaf").
  const char* op = "leaf";

  size_t size() const { return rows * cols; }
  float& at(size_t r, size_t c) { return values[r * cols + c]; }
  float at(size_t r, size_t c) const { return values[r * cols + c]; }
};

/// Runs one node's backward rule, accumulating into its parents' grads.
/// Implemented in ops.cc as a switch over Node::tag. No-op for leaves.
void RunNodeBackward(Node* node);

/// Value-semantics handle to a Node. Copies share the underlying node, like
/// torch tensors. All shapes are (rows, cols); vectors are (1, n) or (n, 1).
class Tensor {
 public:
  /// Null handle; most code should use the factories below.
  Tensor() = default;
  explicit Tensor(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  /// A constant (no-grad) tensor filled with `value`.
  static Tensor Full(size_t rows, size_t cols, float value);
  static Tensor Zeros(size_t rows, size_t cols);
  /// A zero tensor with t's shape — the gradient-init idiom.
  static Tensor ZerosLike(const Tensor& t);

  /// A constant tensor wrapping the given row-major data.
  static Tensor FromData(size_t rows, size_t cols, std::vector<float> data);

  /// A trainable leaf (requires_grad = true) initialized with `data`.
  static Tensor Parameter(size_t rows, size_t cols, std::vector<float> data);

  bool defined() const { return node_ != nullptr; }
  size_t rows() const { return node_->rows; }
  size_t cols() const { return node_->cols; }
  size_t size() const { return node_->size(); }
  bool requires_grad() const { return node_->requires_grad; }

  const std::vector<float>& data() const { return node_->values; }
  std::vector<float>& mutable_data() { return node_->values; }
  const std::vector<float>& grad() const { return node_->grad; }
  std::vector<float>& mutable_grad() { return node_->grad; }

  float at(size_t r, size_t c) const { return node_->at(r, c); }
  /// Scalar access; requires a 1x1 tensor.
  float item() const;

  std::shared_ptr<Node> node() const { return node_; }

  /// Runs reverse-mode autodiff from this (scalar) tensor: seeds d(this)=1
  /// and accumulates gradients into every requires_grad node reachable from
  /// it. Gradients accumulate across calls until ZeroGrad.
  void Backward();

  /// Clears this node's gradient buffer (leaves only; optimizers clear
  /// their parameters each step).
  void ZeroGrad();

  std::string ShapeString() const;

 private:
  std::shared_ptr<Node> node_;
};

/// Creates a non-leaf node for an op result: zeroed values buffer, backward
/// tag, parent edges. Gradient tracking is enabled iff any parent requires
/// grad. The op fills the node's POD context / aux buffers after this
/// returns (only needed when the result requires grad).
Tensor MakeOpResult(size_t rows, size_t cols, const char* op, BackwardTag tag,
                    std::initializer_list<const Tensor*> parents);

/// Variadic-parent form (ConcatCols).
Tensor MakeOpResult(size_t rows, size_t cols, const char* op, BackwardTag tag,
                    const std::vector<Tensor>& parents);

/// Process-wide count of Nodes created so far (every factory and op result,
/// parameters included). Tests diff it around a call to assert that the
/// call builds no autodiff graph.
uint64_t NodesCreated();

}  // namespace zerodb::nn

#endif  // ZERODB_NN_TENSOR_H_
