#include "nn/tensor.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/string_util.h"

namespace zerodb::nn {

namespace {

// Relaxed: an observational counter, read by tests between calls.
std::atomic<uint64_t> g_nodes_created{0};

// One node holding `values`; every factory and op result funnels through
// here.
Tensor MakeNode(size_t rows, size_t cols, std::vector<float> values) {
  g_nodes_created.fetch_add(1, std::memory_order_relaxed);
  auto node = std::make_shared<Node>();
  node->rows = rows;
  node->cols = cols;
  node->values = std::move(values);
  return Tensor(std::move(node));
}

// A node with a zeroed (rows*cols) values buffer. Direct
// value-initialization: one allocation, elements zeroed by the vector
// itself (no fill-after-resize pass).
Tensor MakeNode(size_t rows, size_t cols) {
  return MakeNode(rows, cols, std::vector<float>(rows * cols));
}

}  // namespace

uint64_t NodesCreated() {
  return g_nodes_created.load(std::memory_order_relaxed);
}

Tensor Tensor::Full(size_t rows, size_t cols, float value) {
  Tensor t = MakeNode(rows, cols);
  if (value != 0.0f) {
    std::fill(t.mutable_data().begin(), t.mutable_data().end(), value);
  }
  return t;
}

Tensor Tensor::Zeros(size_t rows, size_t cols) {
  // MakeNode's buffer is already value-initialized; nothing to fill.
  return MakeNode(rows, cols);
}

Tensor Tensor::ZerosLike(const Tensor& t) {
  ZDB_CHECK(t.defined());
  return Zeros(t.rows(), t.cols());
}

Tensor Tensor::FromData(size_t rows, size_t cols, std::vector<float> data) {
  ZDB_CHECK_EQ(rows * cols, data.size())
      << "FromData shape (" << rows << ", " << cols << ") vs "
      << data.size() << " values";
  return MakeNode(rows, cols, std::move(data));
}

Tensor Tensor::Parameter(size_t rows, size_t cols, std::vector<float> data) {
  ZDB_CHECK_EQ(rows * cols, data.size())
      << "Parameter shape (" << rows << ", " << cols << ") vs "
      << data.size() << " values";
  Tensor t = MakeNode(rows, cols, std::move(data));
  t.node()->requires_grad = true;
  t.node()->grad = std::vector<float>(rows * cols);
  return t;
}

float Tensor::item() const {
  ZDB_CHECK(defined());
  ZDB_CHECK_EQ(size(), 1u);
  return node_->values[0];
}

namespace {

// Monotonic traversal epoch: each Backward() call takes a fresh mark, so
// Node::visit_mark == mark identifies "seen by this call" without a visited
// set. Atomic because concurrent shard executors run Backward on disjoint
// graphs; uniqueness across threads keeps stale marks harmless.
std::atomic<uint64_t> g_visit_epoch{0};

struct TopoFrame {
  Node* node;
  size_t next_parent;
};

}  // namespace

void Tensor::Backward() {
  ZDB_CHECK(defined());
  ZDB_CHECK_EQ(size(), 1u) << "Backward requires a scalar loss";
  ZDB_CHECK(node_->requires_grad)
      << "Backward on a graph with no trainable parameters";

  // Iterative depth-first post-order, pruned to the grad-tracking subgraph:
  // requires_grad propagates parent->child, so any node on a path from the
  // loss to a requires_grad node itself requires grad — skipping no-grad
  // parents (constants, targets) drops exactly the nodes whose backward
  // would be a no-op, and leaves the execution order of the rest unchanged.
  // The visit stacks are thread_local so steady-state Backward calls do not
  // allocate.
  const uint64_t mark = g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  thread_local std::vector<TopoFrame> frames;
  thread_local std::vector<Node*> order;
  frames.clear();
  order.clear();

  node_->visit_mark = mark;
  frames.push_back({node_.get(), 0});
  while (!frames.empty()) {
    TopoFrame& frame = frames.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && parent->visit_mark != mark) {
        parent->visit_mark = mark;
        frames.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      frames.pop_back();
    }
  }

  // Ensure every node in the walk has a sized grad buffer; leaves keep their
  // accumulated gradient, non-leaf intermediates start each pass from zero.
  for (Node* node : order) {
    const size_t count = node->size();
    if (node->grad.size() != count) {
      node->grad = std::vector<float>(count);
    } else if (node->tag != BackwardTag::kLeaf && node != node_.get()) {
      std::fill(node->grad.begin(), node->grad.end(), 0.0f);
    }
  }

  node_->grad.assign(1, 1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->tag != BackwardTag::kLeaf) {
      RunNodeBackward(node);
    }
  }
}

void Tensor::ZeroGrad() {
  ZDB_CHECK(defined());
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
}

std::string Tensor::ShapeString() const {
  if (!defined()) return "(null)";
  return StrFormat("(%zu, %zu)", rows(), cols());
}

namespace {

template <typename ParentIter>
Tensor MakeOpResultImpl(size_t rows, size_t cols, const char* op,
                        BackwardTag tag, ParentIter begin, ParentIter end,
                        size_t parent_count) {
  Tensor out = MakeNode(rows, cols);
  Node* node = out.node().get();
  node->op = op;
  bool requires_grad = false;
  for (ParentIter it = begin; it != end; ++it) {
    if ((*it)->requires_grad()) {
      requires_grad = true;
      break;
    }
  }
  node->requires_grad = requires_grad;
  if (requires_grad) node->tag = tag;
  // Parent edges are kept even without grad so inputs stay alive while this
  // result does (same ownership semantics as the closure-based graph).
  node->parents.reserve(parent_count);
  for (ParentIter it = begin; it != end; ++it) {
    node->parents.push_back((*it)->node());
  }
  return out;
}

// Adapts the vector<Tensor> overload to the pointer-based iteration above.
struct TensorPtrIter {
  const Tensor* tensor;
  const Tensor* operator*() const { return tensor; }
  TensorPtrIter& operator++() {
    ++tensor;
    return *this;
  }
  bool operator!=(const TensorPtrIter& other) const {
    return tensor != other.tensor;
  }
};

}  // namespace

Tensor MakeOpResult(size_t rows, size_t cols, const char* op, BackwardTag tag,
                    std::initializer_list<const Tensor*> parents) {
  return MakeOpResultImpl(rows, cols, op, tag, parents.begin(), parents.end(),
                          parents.size());
}

Tensor MakeOpResult(size_t rows, size_t cols, const char* op, BackwardTag tag,
                    const std::vector<Tensor>& parents) {
  return MakeOpResultImpl(rows, cols, op, tag,
                          TensorPtrIter{parents.data()},
                          TensorPtrIter{parents.data() + parents.size()},
                          parents.size());
}

}  // namespace zerodb::nn
