#ifndef ZERODB_OPTIMIZER_OPTIMIZER_H_
#define ZERODB_OPTIMIZER_OPTIMIZER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "optimizer/cost_model.h"
#include "plan/physical.h"
#include "plan/query.h"
#include "stats/cardinality.h"
#include "stats/database_stats.h"
#include "storage/database.h"

namespace zerodb::optimizer {

/// A hypothetical ("what-if") index the planner may use even though it does
/// not exist in storage. Plans using one can be featurized and fed to the
/// zero-shot cost model but not executed — that is the paper's What-If mode.
struct HypotheticalIndex {
  std::string table;
  size_t column_index = 0;
};

struct PlannerOptions {
  /// Indexes to treat as existing in addition to the real ones.
  std::vector<HypotheticalIndex> hypothetical_indexes;
  /// When false, scans never use indexes (forces SeqScan-only plans).
  bool enable_index_scan = true;
  /// When false, joins never use IndexNLJoin.
  bool enable_index_nl_join = true;
  /// Rows below which NestedLoopJoin is considered.
  double nlj_row_threshold = 64.0;
};

/// Cost-based query planner: access-path selection per table, then
/// Selinger-style dynamic programming over connected subsets of the join
/// graph, then the aggregation operator on top. Every emitted node is
/// annotated with the estimated cardinality and cumulative estimated cost;
/// the root's est_cost is the "optimizer cost" used by the Scaled Optimizer
/// Cost baseline.
class Planner {
 public:
  Planner(const storage::Database* db, const stats::DatabaseStats* stats,
          CostParams cost_params = CostParams(),
          PlannerOptions options = PlannerOptions());

  /// Plans the query; fails on invalid specs or > 12 tables (DP limit).
  StatusOr<plan::PhysicalPlan> Plan(const plan::QuerySpec& query) const;

  const CostModel& cost_model() const { return cost_model_; }

 private:
  struct AccessPath {
    std::unique_ptr<plan::PhysicalNode> node;
    double cardinality = 0.0;
    double cost = 0.0;
  };

  /// Best access path for one table under its pushed-down predicate.
  AccessPath PlanScan(const std::string& table,
                      const plan::Predicate* predicate) const;

  /// True if an index (real or hypothetical) exists on table.column.
  bool HasIndex(const std::string& table, size_t column_index) const;

  /// Estimated B-tree height for an index on the table (real or assumed).
  int64_t IndexHeight(const std::string& table) const;

  const storage::Database* db_;
  const stats::DatabaseStats* stats_;
  stats::CardinalityEstimator estimator_;
  CostModel cost_model_;
  PlannerOptions options_;

  // Planning telemetry, cached from the global MetricsRegistry (no-ops
  // while it is disabled): plans produced, DP join candidates considered /
  // rejected, and planning latency.
  obs::Counter* plans_planned_;
  obs::Counter* join_candidates_;
  obs::Counter* join_candidates_pruned_;
  obs::Histogram* plan_us_;
};

/// True if an index (real or hypothetical) on table.column_index can change
/// the plan Planner::Plan chooses for `query`. The planner consults indexes
/// at exactly two Planner::HasIndex call sites in optimizer.cc:
///   - PlanScan: HasIndex(table, leaf->slot()) for a filter comparison on the
///     scanned table;
///   - the index nested-loop join candidate: HasIndex(inner table, its join
///     column).
/// So only an index on a column that `query` filters or joins on can matter;
/// any other index leaves the plan, and its fingerprint, unchanged. The
/// what-if advisor prices each query once per relevant index subset on the
/// strength of this, so a new HasIndex call site must widen it
/// (PlannerTest.IrrelevantIndexesLeavePlanUnchanged fails otherwise).
bool IndexMayChangePlan(const storage::Database& db,
                        const plan::QuerySpec& query, const std::string& table,
                        size_t column_index);

/// Finds the slot of (table, column_index) in an output schema; CHECK-fails
/// if absent (planner invariant).
size_t FindSlot(const std::vector<plan::OutputColumn>& schema,
                const std::string& table, size_t column_index);

}  // namespace zerodb::optimizer

#endif  // ZERODB_OPTIMIZER_OPTIMIZER_H_
