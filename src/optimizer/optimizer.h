#ifndef ZERODB_OPTIMIZER_OPTIMIZER_H_
#define ZERODB_OPTIMIZER_OPTIMIZER_H_

#include <memory>
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

  /// One query's join search: the per-table and per-edge facts resolved
  /// before the DP, the per-mask cardinalities and widths, and the DP's cost
  /// descriptors. Defined in optimizer.cc.
  struct JoinSearch;

  /// Builds the winning join tree for `mask` from the DP descriptors, moving
  /// each base access path into place. `offset` is the position of the
  /// subtree's first output column in the whole join tree's output; the
  /// offset of every table in `mask` is recorded in `search`.
  static std::unique_ptr<plan::PhysicalNode> BuildJoinTree(JoinSearch* search,
                                                           size_t mask,
                                                           size_t offset);

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
/// the plan Planner::Plan chooses for `query`. Planner::Plan consults indexes
/// through Planner::HasIndex in exactly two places in optimizer.cc:
///   - PlanScan: HasIndex(table, leaf->slot()) for a filter comparison on the
///     scanned table;
///   - the join search's per-edge precompute: HasIndex on each side's (table,
///     join column), which the index nested-loop join candidate reads for its
///     inner side.
/// So only an index on a column that `query` filters or joins on can matter;
/// any other index leaves the plan, and its fingerprint, unchanged. The
/// what-if advisor prices each query once per relevant index subset on the
/// strength of this, so a new HasIndex call site must widen it
/// (PlannerTest.IrrelevantIndexesLeavePlanUnchanged fails otherwise).
bool IndexMayChangePlan(const storage::Database& db,
                        const plan::QuerySpec& query, const std::string& table,
                        size_t column_index);

}  // namespace zerodb::optimizer

#endif  // ZERODB_OPTIMIZER_OPTIMIZER_H_
