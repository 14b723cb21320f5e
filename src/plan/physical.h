#ifndef ZERODB_PLAN_PHYSICAL_H_
#define ZERODB_PLAN_PHYSICAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "catalog/types.h"
#include "common/status.h"
#include "plan/expr.h"
#include "plan/query.h"
#include "storage/database.h"

namespace zerodb::plan {

/// Physical operator kinds. The zero-shot model has one encoder per kind:
/// physical (not logical) operators are featurized so runtime-complexity
/// differences (hash vs index-nested-loop join, seq vs index scan) are
/// visible to the model, as in the paper's Figure 3.
enum class PhysicalOpType {
  kSeqScan,
  kIndexScan,
  kFilter,
  kHashJoin,
  kNestedLoopJoin,
  kIndexNLJoin,
  kSort,
  kHashAggregate,
  kSimpleAggregate,
};

const char* PhysicalOpName(PhysicalOpType type);
inline constexpr size_t kNumPhysicalOpTypes = 9;
static_assert(static_cast<size_t>(PhysicalOpType::kSimpleAggregate) + 1 ==
              kNumPhysicalOpTypes);

/// An aggregate over a slot of the child's output (nullopt = COUNT(*)).
struct AggregateExpr {
  AggFunc func = AggFunc::kCount;
  std::optional<size_t> input_slot;
};

/// A node of a physical query plan. Plans are trees of unique_ptr-owned
/// nodes; annotation fields are written by the optimizer (estimates) and the
/// executor (true cardinalities) and consumed by the featurizers.
struct PhysicalNode {
  PhysicalOpType type = PhysicalOpType::kSeqScan;
  std::vector<std::unique_ptr<PhysicalNode>> children;

  // --- Scans (kSeqScan, kIndexScan) and the inner side of kIndexNLJoin ---
  std::string table_name;
  /// Scan filter (slots = base table columns) evaluated during the scan; for
  /// kIndexScan this is the residual predicate applied after the range
  /// lookup; for kFilter the slots index the child's output slots; for
  /// kIndexNLJoin it is the residual predicate on the *inner* table.
  std::optional<Predicate> predicate;
  // kIndexScan: indexed column and inclusive key range.
  size_t index_column = 0;
  std::optional<double> range_lo;
  std::optional<double> range_hi;

  // --- Joins (kHashJoin, kNestedLoopJoin): equi-join slots into the left /
  // right child outputs. For kIndexNLJoin, left_key_slot indexes the
  // outer (only) child's output and index_column names the inner key column.
  size_t left_key_slot = 0;
  size_t right_key_slot = 0;

  // --- Aggregation (kHashAggregate has group_by_slots; kSimpleAggregate
  // produces exactly one row) ---
  std::vector<size_t> group_by_slots;
  std::vector<AggregateExpr> aggregates;

  // --- Sort ---
  std::vector<size_t> sort_slots;

  // --- Annotations ---
  double est_cardinality = 0.0;   ///< optimizer's estimated output rows
  double est_cost = 0.0;          ///< optimizer's cumulative cost
  double true_cardinality = -1.0; ///< filled by the executor, -1 = unknown

  /// Number of nodes in this subtree.
  size_t SubtreeSize() const;

  /// Tree height (leaf = 1).
  size_t Height() const;

  /// Pre-order visit of the subtree.
  void Visit(const std::function<void(const PhysicalNode&)>& fn) const;
  void VisitMutable(const std::function<void(PhysicalNode&)>& fn);

  /// Deep copy (annotations included).
  std::unique_ptr<PhysicalNode> Clone() const;

  /// Indented multi-line rendering of the subtree (EXPLAIN-style).
  std::string ToString(const storage::Database& db, int indent = 0) const;
};

/// Convenience builders.
std::unique_ptr<PhysicalNode> MakeSeqScan(std::string table,
                                          std::optional<Predicate> predicate);
std::unique_ptr<PhysicalNode> MakeIndexScan(std::string table,
                                            size_t index_column,
                                            std::optional<double> lo,
                                            std::optional<double> hi,
                                            std::optional<Predicate> residual);
std::unique_ptr<PhysicalNode> MakeFilter(std::unique_ptr<PhysicalNode> child,
                                         Predicate predicate);
std::unique_ptr<PhysicalNode> MakeHashJoin(std::unique_ptr<PhysicalNode> build,
                                           std::unique_ptr<PhysicalNode> probe,
                                           size_t left_key_slot,
                                           size_t right_key_slot);
std::unique_ptr<PhysicalNode> MakeNestedLoopJoin(
    std::unique_ptr<PhysicalNode> left, std::unique_ptr<PhysicalNode> right,
    size_t left_key_slot, size_t right_key_slot);
std::unique_ptr<PhysicalNode> MakeIndexNLJoin(
    std::unique_ptr<PhysicalNode> outer, std::string inner_table,
    size_t outer_key_slot, size_t inner_key_column,
    std::optional<Predicate> inner_residual);
std::unique_ptr<PhysicalNode> MakeSort(std::unique_ptr<PhysicalNode> child,
                                       std::vector<size_t> sort_slots);
std::unique_ptr<PhysicalNode> MakeSimpleAggregate(
    std::unique_ptr<PhysicalNode> child, std::vector<AggregateExpr> aggregates);
std::unique_ptr<PhysicalNode> MakeHashAggregate(
    std::unique_ptr<PhysicalNode> child, std::vector<size_t> group_by_slots,
    std::vector<AggregateExpr> aggregates);

/// A complete plan: the root node plus the query it answers.
struct PhysicalPlan {
  std::unique_ptr<PhysicalNode> root;

  PhysicalPlan() = default;
  explicit PhysicalPlan(std::unique_ptr<PhysicalNode> r) : root(std::move(r)) {}

  PhysicalPlan Clone() const {
    PhysicalPlan copy;
    if (root != nullptr) copy.root = root->Clone();
    return copy;
  }
};

/// The output slots of every node of one plan, from DeriveOutputSlots: per
/// slot, the type of the column it carries and that column's average width
/// in bytes (an aggregate result is a kDouble of 8 bytes). Keyed by node
/// address, so it describes the plan it was derived from only while that
/// plan is alive and unchanged in shape; asking about any other node aborts.
class PlanSlots {
 public:
  size_t NumSlots(const PhysicalNode& node) const {
    return Types(node).size();
  }
  std::span<const catalog::DataType> Types(const PhysicalNode& node) const;
  std::span<const int64_t> SlotWidths(const PhysicalNode& node) const;
  /// Average output tuple width in bytes: the slot widths' sum, at least 1.
  int64_t WidthBytes(const PhysicalNode& node) const;

 private:
  friend StatusOr<PlanSlots> DeriveOutputSlots(const PhysicalNode& root,
                                               const storage::Database& db);
  // A node's slots are [begin, end) of types_ / widths_; sum_bytes is the
  // unclamped sum of their widths.
  struct Range {
    size_t begin = 0;
    size_t end = 0;
    int64_t sum_bytes = 0;
  };
  // Appends the slots of `node`'s subtree, children first, and returns
  // `node`'s range.
  StatusOr<Range> Add(const PhysicalNode& node, const storage::Database& db);
  const Range& RangeOf(const PhysicalNode& node) const;
  // Appends slots to the end of types_ / widths_ and to `range`, which
  // must end there. Arguments are by value: they may alias types_/widths_.
  void Append(catalog::DataType type, int64_t width, Range* range);
  void AppendTable(const storage::Table& table, Range* range);
  void AppendSlots(const Range& from, Range* range);

  // Sorted by node address once the walk is done; looked up by binary
  // search.
  std::vector<std::pair<const PhysicalNode*, Range>> ranges_;
  std::vector<catalog::DataType> types_;
  std::vector<int64_t> widths_;
};

/// The one rule for which slots each operator emits, applied to a whole plan
/// in a single bottom-up walk: a scan emits its table's columns, Filter and
/// Sort their child's slots, a join its left then its right input (an
/// IndexNLJoin's right input is its inner table), an aggregate its group-by
/// slots then one slot per aggregate. Every table is resolved once per node.
/// Returns InvalidArgument, with ValidatePlan's messages, for a null child, a
/// wrong child count, an unknown table or a group-by slot outside the
/// child's output; every other plan invariant is ValidatePlan's.
[[nodiscard]] StatusOr<PlanSlots> DeriveOutputSlots(
    const PhysicalNode& root, const storage::Database& db);

}  // namespace zerodb::plan

#endif  // ZERODB_PLAN_PHYSICAL_H_
