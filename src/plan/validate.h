#ifndef ZERODB_PLAN_VALIDATE_H_
#define ZERODB_PLAN_VALIDATE_H_

#include <span>

#include "common/status.h"
#include "plan/physical.h"
#include "storage/database.h"

namespace zerodb::plan {

/// Semantic plan invariants the compiler cannot express, checked at
/// debug time via ZDB_DCHECK_OK at every plan hand-off (optimizer emission,
/// executor open) so each existing test doubles as a verification run.
///
/// ValidatePlan first derives every node's output slots (DeriveOutputSlots),
/// which owns the structural checks and fails first on any of them: no null
/// child, every operator has its required child count, scans and index
/// joins name existing tables, group-by slots resolve in the child's output.
/// It then walks the tree bottom-up and returns the first violation:
///  - structure: aggregates are non-empty; HashAggregate groups,
///    SimpleAggregate does not; Sort has sort keys.
///  - schema consistency: every other slot reference (predicate leaves,
///    join keys, index columns, aggregate inputs, sort keys) resolves inside
///    the input slots it indexes.
///  - expression typing: predicate leaves over dictionary-encoded string
///    columns use only equality/inequality; literals are not NaN; equi-join
///    keys do not compare a string column against a numeric one.
///  - cardinality sanity: estimates are finite and non-negative;
///    true cardinalities (when recorded by the executor) respect relational
///    bounds — a Filter never outputs more rows than its input, Sort
///    preserves cardinality, SimpleAggregate emits exactly one row, a join
///    emits at most the cross product, a scan at most the table.
[[nodiscard]] Status ValidatePlan(const PhysicalNode& root,
                                  const storage::Database& db);

/// The same checks on output slots the caller already derived with
/// DeriveOutputSlots(root, db), which must have succeeded.
[[nodiscard]] Status ValidatePlan(const PhysicalNode& root,
                                  const storage::Database& db,
                                  const PlanSlots& slots);

/// Convenience overload; fails if the plan has no root.
[[nodiscard]] Status ValidatePlan(const PhysicalPlan& plan,
                                  const storage::Database& db);

/// Validates a predicate tree against an input schema given as per-slot
/// column types (kCompare leaves must reference valid slots, string slots
/// only with kEq/kNe, literals must not be NaN; kAnd/kOr need children).
/// Exposed for reuse by featurizers and tests.
[[nodiscard]] Status ValidatePredicate(
    const Predicate& predicate, std::span<const catalog::DataType> slot_types);

}  // namespace zerodb::plan

#endif  // ZERODB_PLAN_VALIDATE_H_
