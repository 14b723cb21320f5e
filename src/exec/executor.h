#ifndef ZERODB_EXEC_EXECUTOR_H_
#define ZERODB_EXEC_EXECUTOR_H_

#include <cstdint>
#include <unordered_map>

#include "common/status.h"
#include "exec/batch.h"
#include "obs/metrics.h"
#include "obs/trace_event.h"
#include "plan/physical.h"
#include "storage/database.h"

namespace zerodb::exec {

/// Result of executing a plan: the final batch plus per-node work counters.
struct ExecutionResult {
  RowBatch output;
  std::unordered_map<const plan::PhysicalNode*, OperatorStats> stats;

  const OperatorStats& StatsFor(const plan::PhysicalNode& node) const;
};

/// Options guarding runaway queries (the random workload generator can in
/// principle produce large join outputs; such queries are rejected and the
/// collector draws a replacement).
struct ExecutorOptions {
  int64_t max_intermediate_rows = 2'000'000;
  /// Timeline that receives one "exec" event per operator, named after the
  /// operator (plus the table for scans) and carrying est_cardinality and
  /// the OperatorStats as args; children's events nest inside their
  /// parent's on the executing thread's track. nullptr = the process-global
  /// recorder (absent by default, so the only cost is a branch per operator).
  obs::TraceEventRecorder* recorder = nullptr;
  /// Registry for executor counters/latency histograms; nullptr = the
  /// process-global registry (disabled by default, so the only cost is a
  /// branch per operator).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Executes physical plans against an in-memory database. Operators
/// materialize their outputs column-at-a-time; every operator also records
/// OperatorStats and writes its true output cardinality into the plan node
/// (`true_cardinality`), which is how "exact cardinality" featurization gets
/// its inputs.
///
/// Thread-compatible, not thread-safe (DESIGN.md "Concurrency discipline"):
/// one Executor serves one thread at a time — Execute mutates the plan in
/// place. Distinct Executor instances over the same (immutable) Database are
/// safe concurrently: the shared MetricsRegistry and TraceEventRecorder are
/// internally synchronized and the cached metric pointers below are written
/// only in the constructor. A future parallel
/// executor parallelizes *within* Execute (operator trees), keeping this
/// external contract.
class Executor {
 public:
  explicit Executor(const storage::Database* db,
                    ExecutorOptions options = ExecutorOptions());

  /// Executes the plan. The plan is annotated in place.
  StatusOr<ExecutionResult> Execute(plan::PhysicalPlan* plan);

 private:
  StatusOr<RowBatch> ExecuteNode(plan::PhysicalNode* node,
                                 ExecutionResult* result);

  StatusOr<RowBatch> ExecSeqScan(plan::PhysicalNode* node, OperatorStats* s);
  StatusOr<RowBatch> ExecIndexScan(plan::PhysicalNode* node, OperatorStats* s);
  StatusOr<RowBatch> ExecFilter(plan::PhysicalNode* node, RowBatch child,
                                OperatorStats* s);
  StatusOr<RowBatch> ExecHashJoin(plan::PhysicalNode* node, RowBatch left,
                                  RowBatch right, OperatorStats* s);
  StatusOr<RowBatch> ExecNestedLoopJoin(plan::PhysicalNode* node,
                                        RowBatch left, RowBatch right,
                                        OperatorStats* s);
  StatusOr<RowBatch> ExecIndexNLJoin(plan::PhysicalNode* node, RowBatch outer,
                                     OperatorStats* s);
  StatusOr<RowBatch> ExecSort(plan::PhysicalNode* node, RowBatch child,
                              OperatorStats* s);
  StatusOr<RowBatch> ExecAggregate(plan::PhysicalNode* node, RowBatch child,
                                   OperatorStats* s);

  const storage::Database* db_;
  ExecutorOptions options_;

  // Cached registry metrics (owned by the registry; see ExecutorOptions).
  obs::MetricsRegistry* registry_;
  obs::Counter* queries_executed_;
  obs::Counter* operators_executed_;
  obs::Counter* rows_produced_;
  obs::Histogram* operator_us_;
  obs::Histogram* query_us_;
};

}  // namespace zerodb::exec

#endif  // ZERODB_EXEC_EXECUTOR_H_
