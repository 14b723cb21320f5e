#ifndef ZERODB_PLAN_QUERY_H_
#define ZERODB_PLAN_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "plan/expr.h"
#include "storage/database.h"

namespace zerodb::plan {

/// Aggregate functions supported in the SELECT list.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc func);

/// An aggregate over a base-table column (or COUNT(*) with no column).
struct AggregateSpec {
  AggFunc func = AggFunc::kCount;
  std::string table;   // empty for COUNT(*)
  std::string column;  // empty for COUNT(*)
};

/// An equi-join condition between two base-table columns.
struct JoinSpec {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;
};

/// A conjunctive filter attached to one base table; predicate slots index
/// the base table's columns.
struct FilterSpec {
  std::string table;
  Predicate predicate = Predicate::Compare(0, CompareOp::kEq, 0);
};

/// A grouping column.
struct GroupBySpec {
  std::string table;
  std::string column;
};

/// The declarative representation of the SPJA queries the paper's workloads
/// use: select-project-join with per-table conjunctive predicates and up to
/// a few aggregates, optionally grouped. This is what the workload generator
/// emits and what the optimizer turns into a physical plan.
struct QuerySpec {
  /// FROM tables, each named once: there are no self-joins, so a table name
  /// identifies one input of the join graph (the planner's per-table output
  /// offsets rely on this, and Validate rejects a repeat).
  std::vector<std::string> tables;
  std::vector<JoinSpec> joins;
  std::vector<FilterSpec> filters;
  std::vector<AggregateSpec> aggregates;
  std::vector<GroupBySpec> group_by;

  /// Renders as SQL-ish text for logs and examples.
  std::string ToSql(const storage::Database& db) const;

  /// Structural sanity checks against the database schema: tables are
  /// distinct and exist, join/aggregate columns exist, joins connect the
  /// table set.
  Status Validate(const storage::Database& db) const;
};

}  // namespace zerodb::plan

#endif  // ZERODB_PLAN_QUERY_H_
