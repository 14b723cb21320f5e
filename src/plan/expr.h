#ifndef ZERODB_PLAN_EXPR_H_
#define ZERODB_PLAN_EXPR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "catalog/schema.h"

namespace zerodb::plan {

/// Comparison operators usable in predicates. String (dictionary-code)
/// columns use only kEq / kNe; numeric columns use all of them.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
/// One-hot widths in the featurizers; update with the enum.
inline constexpr size_t kNumCompareOps = 6;
static_assert(static_cast<size_t>(CompareOp::kGe) + 1 == kNumCompareOps);

const char* CompareOpName(CompareOp op);

/// A boolean predicate tree over the "slots" (column positions) of some row
/// schema. At table scans the slots are the base table's column indexes; in
/// Filter nodes they are positions in the child operator's output schema.
///
/// Only the *structure* of predicates (tree shape, operator kinds, column
/// types) is visible to the zero-shot featurizer; literal values stay out of
/// the features (the paper's separation of concerns: selectivities enter
/// through cardinality inputs, not through memorized literals).
class Predicate {
 public:
  enum class Kind { kCompare, kAnd, kOr };

  /// Leaf: slot <op> literal.
  static Predicate Compare(size_t slot, CompareOp op, double literal);
  /// Conjunction / disjunction of one or more children.
  static Predicate And(std::vector<Predicate> children);
  static Predicate Or(std::vector<Predicate> children);

  Kind kind() const { return kind_; }
  size_t slot() const { return slot_; }
  CompareOp op() const { return op_; }
  double literal() const { return literal_; }
  const std::vector<Predicate>& children() const { return children_; }

  /// Evaluates against a row given as slot values.
  bool Evaluate(const std::vector<double>& row) const;

  /// Number of leaf comparisons (a computational-complexity feature).
  size_t NumComparisons() const;

  /// Tree depth (leaf = 1).
  size_t Depth() const;

  /// Leaves in left-to-right order (slot/op/literal triples).
  void CollectLeaves(std::vector<const Predicate*>* leaves) const;

  /// All slots referenced anywhere in the tree.
  std::vector<size_t> ReferencedSlots() const;

  /// Rewrites every leaf's slot through the mapping (old slot -> new slot).
  Predicate RemapSlots(const std::vector<size_t>& slot_map) const;

  /// Renders with the given column names, e.g. "(age >= 30 AND kind = 4)".
  std::string ToString(const std::vector<std::string>& slot_names) const;

  /// Renders with a custom leaf renderer (e.g. to resolve dictionary codes
  /// back to quoted strings for SQL output).
  using LeafRenderer =
      std::function<std::string(size_t slot, CompareOp op, double literal)>;
  std::string ToStringWithRenderer(const LeafRenderer& renderer) const;

 private:
  Kind kind_ = Kind::kCompare;
  size_t slot_ = 0;
  CompareOp op_ = CompareOp::kEq;
  double literal_ = 0.0;
  std::vector<Predicate> children_;
};

/// Evaluates a single comparison on a value.
bool EvaluateCompare(double value, CompareOp op, double literal);

}  // namespace zerodb::plan

#endif  // ZERODB_PLAN_EXPR_H_
