#ifndef ZERODB_FEATURIZE_PLAN_GRAPH_H_
#define ZERODB_FEATURIZE_PLAN_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "datagen/corpus.h"
#include "plan/physical.h"

namespace zerodb::featurize {

/// Which cardinality annotations featurizers read off the plan:
/// the optimizer's histogram estimates (deployable) or the true
/// cardinalities from execution (the paper's upper-baseline variant).
enum class CardinalityMode { kEstimated, kExact };

const char* CardinalityModeName(CardinalityMode mode);

/// One featurized plan operator. Its feature row and child ids live in the
/// graph's flat buffers.
struct PlanGraphNode {
  uint32_t op_type = 0;      ///< index into plan::PhysicalOpType
  uint32_t level = 0;        ///< 0 = leaf; parent = max(child)+1
  uint32_t child_begin = 0;  ///< [child_begin, child_end) in `children`
  uint32_t child_end = 0;
};

/// Featurized query plans, the trees the message-passing models consume:
/// one plan or many, each appended in preorder (a plan's root first, every
/// subtree contiguous after its parent). Feature rows are `dim` floats per
/// node, row-major in node order; child ids index `nodes` and are stored
/// CSR, each node's children in plan order.
struct PlanGraph {
  size_t dim = 0;
  std::vector<PlanGraphNode> nodes;
  std::vector<float> features;     ///< nodes.size() * dim
  std::vector<uint32_t> children;  ///< CSR child ids
  std::vector<uint32_t> roots;     ///< each plan's root, in append order

  size_t num_plans() const { return roots.size(); }
  /// One past plan `p`'s last node.
  uint32_t plan_end(size_t p) const {
    return p + 1 < roots.size() ? roots[p + 1]
                                : static_cast<uint32_t>(nodes.size());
  }
  std::span<const float> row(size_t n) const {
    return {features.data() + n * dim, dim};
  }
  std::span<const uint32_t> children_of(size_t n) const {
    return {children.data() + nodes[n].child_begin,
            children.data() + nodes[n].child_end};
  }

  /// Drops every plan; capacities stay.
  void Clear();
};

/// The walk both tree featurizers share; subclasses fill one node's row.
class TreeFeaturizer {
 public:
  virtual ~TreeFeaturizer() = default;

  /// Featurizes an annotated plan into a one-plan graph. With kExact mode
  /// every node must carry a true_cardinality (i.e. the plan was executed).
  PlanGraph Featurize(const plan::PhysicalNode& root,
                      const datagen::DatabaseEnv& env) const;

  /// Appends the plan to `graph` in preorder, one FillRow call per node,
  /// and sets each node's level as the walk returns from its children.
  void Append(const plan::PhysicalNode& root, const datagen::DatabaseEnv& env,
              PlanGraph* graph) const;

  CardinalityMode mode() const { return mode_; }

 protected:
  TreeFeaturizer(CardinalityMode mode, size_t dim) : mode_(mode), dim_(dim) {}

  /// Writes one node's features into its zero-filled row `f` of `dim`
  /// floats. `slots` holds every node's output width, derived once per
  /// plan by plan::DeriveOutputSlots.
  virtual void FillRow(const plan::PhysicalNode& node,
                       const datagen::DatabaseEnv& env,
                       const plan::PlanSlots& slots, float* f) const = 0;

 private:
  /// Appends `node`'s subtree; returns the node's level.
  uint32_t AppendNode(const plan::PhysicalNode& node,
                      const datagen::DatabaseEnv& env,
                      const plan::PlanSlots& slots, PlanGraph* graph) const;

  CardinalityMode mode_;
  size_t dim_;
};

}  // namespace zerodb::featurize

#endif  // ZERODB_FEATURIZE_PLAN_GRAPH_H_
