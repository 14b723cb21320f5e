#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "obs/trace_event.h"
#include "plan/validate.h"

namespace zerodb::exec {

namespace {

using plan::PhysicalNode;
using plan::PhysicalOpType;

// Extracts one base-table column as doubles.
std::vector<double> MaterializeColumn(const storage::Table& table,
                                      size_t column_index) {
  const storage::Column& column = table.column(column_index);
  const size_t n = column.size();
  std::vector<double> data(n);
  if (column.type() == catalog::DataType::kDouble) {
    const auto& raw = column.doubles();
    std::copy(raw.begin(), raw.end(), data.begin());
  } else {
    const auto& raw = column.ints();
    for (size_t i = 0; i < n; ++i) data[i] = static_cast<double>(raw[i]);
  }
  return data;
}

// Gathers selected rows of a full column.
std::vector<double> GatherColumn(const std::vector<double>& column,
                                 const std::vector<uint32_t>& row_ids) {
  std::vector<double> out;
  out.reserve(row_ids.size());
  for (uint32_t row : row_ids) out.push_back(column[row]);
  return out;
}

// Builds the schema entries for all columns of a table.
std::vector<plan::OutputColumn> TableSchemaColumns(const storage::Table& table) {
  std::vector<plan::OutputColumn> schema;
  schema.reserve(table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    schema.push_back(plan::OutputColumn{table.name(), i, false});
  }
  return schema;
}

// Evaluates a predicate over a table row by filling only referenced slots.
class TablePredicateEvaluator {
 public:
  TablePredicateEvaluator(const storage::Table& table,
                          const plan::Predicate& predicate)
      : predicate_(predicate), row_(table.num_columns(), 0.0) {
    for (size_t slot : predicate.ReferencedSlots()) {
      referenced_.emplace_back(slot, MaterializeColumn(table, slot));
    }
    leaves_ = static_cast<int64_t>(predicate.NumComparisons());
  }

  bool Matches(size_t row) {
    for (auto& [slot, data] : referenced_) row_[slot] = data[row];
    return predicate_.Evaluate(row_);
  }

  int64_t leaves() const { return leaves_; }

 private:
  // Borrowed from the PhysicalPlan being executed, which strictly outlives
  // this per-scan evaluator (both live inside one Execute call).
  const plan::Predicate& predicate_;  // zerodb-lint: allow(lifetime-member)
  std::vector<std::pair<size_t, std::vector<double>>> referenced_;
  std::vector<double> row_;
  int64_t leaves_ = 0;
};

struct DoubleHash {
  size_t operator()(double v) const {
    // Canonicalize -0.0 so it hashes like +0.0 (they compare equal).
    if (v == 0.0) v = 0.0;
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return std::hash<uint64_t>()(bits);
  }
};

}  // namespace

// Mirrors every work counter of one operator onto its timeline event.
void AttachStats(obs::TimelineScope* event, const OperatorStats& stats) {
  event->AddArg("input_rows_left", static_cast<double>(stats.input_rows_left));
  event->AddArg("input_rows_right", static_cast<double>(stats.input_rows_right));
  event->AddArg("output_rows", static_cast<double>(stats.output_rows));
  event->AddArg("rows_scanned", static_cast<double>(stats.rows_scanned));
  event->AddArg("pages_read", static_cast<double>(stats.pages_read));
  event->AddArg("index_probes", static_cast<double>(stats.index_probes));
  event->AddArg("index_entries", static_cast<double>(stats.index_entries));
  event->AddArg("predicate_evals", static_cast<double>(stats.predicate_evals));
  event->AddArg("hash_build_rows", static_cast<double>(stats.hash_build_rows));
  event->AddArg("hash_probe_rows", static_cast<double>(stats.hash_probe_rows));
  event->AddArg("sort_rows", static_cast<double>(stats.sort_rows));
  event->AddArg("group_count", static_cast<double>(stats.group_count));
  event->AddArg("output_bytes", static_cast<double>(stats.output_bytes));
}

const OperatorStats& ExecutionResult::StatsFor(
    const plan::PhysicalNode& node) const {
  auto it = stats.find(&node);
  ZDB_CHECK(it != stats.end()) << "no stats recorded for node";
  return it->second;
}

Executor::Executor(const storage::Database* db, ExecutorOptions options)
    : db_(db), options_(options) {
  ZDB_CHECK(db != nullptr);
  registry_ = options_.metrics != nullptr ? options_.metrics
                                          : &obs::MetricsRegistry::Global();
  queries_executed_ = registry_->GetCounter("exec.queries");
  operators_executed_ = registry_->GetCounter("exec.operators");
  rows_produced_ = registry_->GetCounter("exec.rows_produced");
  operator_us_ = registry_->GetHistogram("exec.operator_us");
  query_us_ = registry_->GetHistogram("exec.query_us");
}

StatusOr<ExecutionResult> Executor::Execute(plan::PhysicalPlan* plan) {
  ZDB_CHECK(plan != nullptr && plan->root != nullptr);
  // Open-path invariant gate: schemas, slot references and expression types
  // must be consistent before any operator touches data.
  ZDB_DCHECK_OK(plan::ValidatePlan(*plan->root, *db_));
  queries_executed_->Add(1);
  obs::ScopedTimer timer(registry_->enabled() ? query_us_ : nullptr);
  ExecutionResult result;
  ZDB_ASSIGN_OR_RETURN(result.output, ExecuteNode(plan->root.get(), &result));
  // Post-condition: the true cardinalities just recorded must respect the
  // relational bounds (filters shrink, sorts preserve, joins stay under the
  // cross product), so every query execution doubles as a verification run.
  ZDB_DCHECK_OK(plan::ValidatePlan(*plan->root, *db_));
  return result;
}

StatusOr<RowBatch> Executor::ExecuteNode(PhysicalNode* node,
                                         ExecutionResult* result) {
  // The event opens before the child recursion in the switch, so child
  // events nest inside it; event and histogram time cover the whole subtree.
  obs::TimelineScope timeline(plan::PhysicalOpName(node->type), "exec",
                              options_.recorder != nullptr
                                  ? options_.recorder
                                  : obs::TraceEventRecorder::Global());
  obs::ScopedTimer timer(registry_->enabled() ? operator_us_ : nullptr);
  OperatorStats stats;
  StatusOr<RowBatch> batch_or = [&]() -> StatusOr<RowBatch> {
    switch (node->type) {
      case PhysicalOpType::kSeqScan:
        return ExecSeqScan(node, &stats);
      case PhysicalOpType::kIndexScan:
        return ExecIndexScan(node, &stats);
      case PhysicalOpType::kFilter: {
        ZDB_ASSIGN_OR_RETURN(RowBatch child,
                             ExecuteNode(node->children[0].get(), result));
        return ExecFilter(node, std::move(child), &stats);
      }
      case PhysicalOpType::kHashJoin: {
        ZDB_ASSIGN_OR_RETURN(RowBatch left,
                             ExecuteNode(node->children[0].get(), result));
        ZDB_ASSIGN_OR_RETURN(RowBatch right,
                             ExecuteNode(node->children[1].get(), result));
        return ExecHashJoin(node, std::move(left), std::move(right), &stats);
      }
      case PhysicalOpType::kNestedLoopJoin: {
        ZDB_ASSIGN_OR_RETURN(RowBatch left,
                             ExecuteNode(node->children[0].get(), result));
        ZDB_ASSIGN_OR_RETURN(RowBatch right,
                             ExecuteNode(node->children[1].get(), result));
        return ExecNestedLoopJoin(node, std::move(left), std::move(right),
                                  &stats);
      }
      case PhysicalOpType::kIndexNLJoin: {
        ZDB_ASSIGN_OR_RETURN(RowBatch outer,
                             ExecuteNode(node->children[0].get(), result));
        return ExecIndexNLJoin(node, std::move(outer), &stats);
      }
      case PhysicalOpType::kSort: {
        ZDB_ASSIGN_OR_RETURN(RowBatch child,
                             ExecuteNode(node->children[0].get(), result));
        return ExecSort(node, std::move(child), &stats);
      }
      case PhysicalOpType::kHashAggregate:
      case PhysicalOpType::kSimpleAggregate: {
        ZDB_ASSIGN_OR_RETURN(RowBatch child,
                             ExecuteNode(node->children[0].get(), result));
        return ExecAggregate(node, std::move(child), &stats);
      }
    }
    return Status::Internal("unknown operator");
  }();
  if (!batch_or.ok()) return batch_or.status();
  RowBatch batch = std::move(batch_or).value();

  if (static_cast<int64_t>(batch.num_rows()) > options_.max_intermediate_rows) {
    return Status::OutOfRange("intermediate result exceeds row cap");
  }
  stats.output_rows = static_cast<int64_t>(batch.num_rows());
  stats.output_bytes = stats.output_rows * node->OutputWidthBytes(*db_);
  node->true_cardinality = static_cast<double>(stats.output_rows);
  result->stats[node] = stats;
  operators_executed_->Add(1);
  rows_produced_->Add(stats.output_rows);
  if (timeline.active()) {
    if (!node->table_name.empty()) timeline.SetDetail(node->table_name);
    timeline.AddArg("est_cardinality", node->est_cardinality);
    AttachStats(&timeline, stats);
  }
  return batch;
}

StatusOr<RowBatch> Executor::ExecSeqScan(PhysicalNode* node,
                                         OperatorStats* s) {
  ZDB_ASSIGN_OR_RETURN(const storage::Table* table,
                       db_->GetTable(node->table_name));
  const size_t n = table->num_rows();
  s->rows_scanned = static_cast<int64_t>(n);
  s->input_rows_left = static_cast<int64_t>(n);
  s->pages_read = table->NumPages();

  std::vector<uint32_t> selected;
  if (node->predicate.has_value()) {
    TablePredicateEvaluator evaluator(*table, *node->predicate);
    s->predicate_evals = evaluator.leaves() * static_cast<int64_t>(n);
    selected.reserve(n);  // worst case: every row matches
    for (size_t row = 0; row < n; ++row) {
      if (evaluator.Matches(row)) selected.push_back(static_cast<uint32_t>(row));
    }
  } else {
    selected.resize(n);
    std::iota(selected.begin(), selected.end(), 0u);
  }

  RowBatch batch;
  batch.schema = TableSchemaColumns(*table);
  batch.columns.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    std::vector<double> full = MaterializeColumn(*table, c);
    batch.columns.push_back(GatherColumn(full, selected));
  }
  return batch;
}

StatusOr<RowBatch> Executor::ExecIndexScan(PhysicalNode* node,
                                           OperatorStats* s) {
  ZDB_ASSIGN_OR_RETURN(const storage::Table* table,
                       db_->GetTable(node->table_name));
  const storage::OrderedIndex* index =
      db_->FindIndex(node->table_name, node->index_column);
  if (index == nullptr) {
    return Status::NotFound("no index on " + node->table_name);
  }
  const double lo = node->range_lo.value_or(-std::numeric_limits<double>::infinity());
  const double hi = node->range_hi.value_or(std::numeric_limits<double>::infinity());

  std::vector<uint32_t> matched;
  s->index_probes = 1;
  s->index_entries =
      static_cast<int64_t>(index->LookupRange(lo, hi, &matched));
  // Random heap fetches: one page per match (pessimistic, like an
  // unclustered index), plus the B-tree descent.
  s->pages_read = index->EstimatedHeight() + s->index_entries;

  std::vector<uint32_t> selected;
  if (node->predicate.has_value()) {
    TablePredicateEvaluator evaluator(*table, *node->predicate);
    s->predicate_evals =
        evaluator.leaves() * static_cast<int64_t>(matched.size());
    selected.reserve(matched.size());  // worst case: every match passes
    for (uint32_t row : matched) {
      if (evaluator.Matches(row)) selected.push_back(row);
    }
  } else {
    selected = std::move(matched);
  }

  RowBatch batch;
  batch.schema = TableSchemaColumns(*table);
  batch.columns.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    std::vector<double> full = MaterializeColumn(*table, c);
    batch.columns.push_back(GatherColumn(full, selected));
  }
  return batch;
}

StatusOr<RowBatch> Executor::ExecFilter(PhysicalNode* node, RowBatch child,
                                        OperatorStats* s) {
  ZDB_CHECK(node->predicate.has_value());
  const size_t n = child.num_rows();
  s->input_rows_left = static_cast<int64_t>(n);
  s->predicate_evals =
      static_cast<int64_t>(node->predicate->NumComparisons()) *
      static_cast<int64_t>(n);

  std::vector<uint32_t> selected;
  selected.reserve(n);  // worst case: every row passes
  std::vector<double> row;
  for (size_t i = 0; i < n; ++i) {
    child.GetRow(i, &row);
    if (node->predicate->Evaluate(row)) {
      selected.push_back(static_cast<uint32_t>(i));
    }
  }
  RowBatch batch;
  batch.schema = child.schema;
  batch.columns.reserve(child.num_columns());
  for (const auto& column : child.columns) {
    batch.columns.push_back(GatherColumn(column, selected));
  }
  return batch;
}

StatusOr<RowBatch> Executor::ExecHashJoin(PhysicalNode* node, RowBatch left,
                                          RowBatch right, OperatorStats* s) {
  ZDB_CHECK_LT(node->left_key_slot, left.num_columns());
  ZDB_CHECK_LT(node->right_key_slot, right.num_columns());
  const auto& build_keys = left.columns[node->left_key_slot];
  const auto& probe_keys = right.columns[node->right_key_slot];
  s->input_rows_left = static_cast<int64_t>(left.num_rows());
  s->input_rows_right = static_cast<int64_t>(right.num_rows());
  s->hash_build_rows = s->input_rows_left;
  s->hash_probe_rows = s->input_rows_right;

  std::unordered_multimap<double, uint32_t, DoubleHash> table;
  table.reserve(build_keys.size());
  for (size_t i = 0; i < build_keys.size(); ++i) {
    table.emplace(build_keys[i], static_cast<uint32_t>(i));
  }

  std::vector<uint32_t> left_sel;
  std::vector<uint32_t> right_sel;
  // FK-join heuristic: about one match per probe row; larger outputs grow
  // geometrically from here instead of from zero.
  left_sel.reserve(probe_keys.size());
  right_sel.reserve(probe_keys.size());
  for (size_t j = 0; j < probe_keys.size(); ++j) {
    auto [begin, end] = table.equal_range(probe_keys[j]);
    for (auto it = begin; it != end; ++it) {
      left_sel.push_back(it->second);
      right_sel.push_back(static_cast<uint32_t>(j));
      if (static_cast<int64_t>(left_sel.size()) >
          options_.max_intermediate_rows) {
        return Status::OutOfRange("hash join output exceeds row cap");
      }
    }
  }

  RowBatch batch;
  batch.schema = left.schema;
  batch.schema.insert(batch.schema.end(), right.schema.begin(),
                      right.schema.end());
  batch.columns.reserve(left.num_columns() + right.num_columns());
  for (const auto& column : left.columns) {
    batch.columns.push_back(GatherColumn(column, left_sel));
  }
  for (const auto& column : right.columns) {
    batch.columns.push_back(GatherColumn(column, right_sel));
  }
  return batch;
}

StatusOr<RowBatch> Executor::ExecNestedLoopJoin(PhysicalNode* node,
                                                RowBatch left, RowBatch right,
                                                OperatorStats* s) {
  ZDB_CHECK_LT(node->left_key_slot, left.num_columns());
  ZDB_CHECK_LT(node->right_key_slot, right.num_columns());
  const auto& left_keys = left.columns[node->left_key_slot];
  const auto& right_keys = right.columns[node->right_key_slot];
  s->input_rows_left = static_cast<int64_t>(left.num_rows());
  s->input_rows_right = static_cast<int64_t>(right.num_rows());
  s->predicate_evals = s->input_rows_left * s->input_rows_right;

  std::vector<uint32_t> left_sel;
  std::vector<uint32_t> right_sel;
  // Same capacity heuristic as the hash join: one match per outer row.
  left_sel.reserve(left_keys.size());
  right_sel.reserve(left_keys.size());
  for (size_t i = 0; i < left_keys.size(); ++i) {
    for (size_t j = 0; j < right_keys.size(); ++j) {
      if (left_keys[i] == right_keys[j]) {
        left_sel.push_back(static_cast<uint32_t>(i));
        right_sel.push_back(static_cast<uint32_t>(j));
        if (static_cast<int64_t>(left_sel.size()) >
            options_.max_intermediate_rows) {
          return Status::OutOfRange("nested loop output exceeds row cap");
        }
      }
    }
  }

  RowBatch batch;
  batch.schema = left.schema;
  batch.schema.insert(batch.schema.end(), right.schema.begin(),
                      right.schema.end());
  batch.columns.reserve(left.num_columns() + right.num_columns());
  for (const auto& column : left.columns) {
    batch.columns.push_back(GatherColumn(column, left_sel));
  }
  for (const auto& column : right.columns) {
    batch.columns.push_back(GatherColumn(column, right_sel));
  }
  return batch;
}

StatusOr<RowBatch> Executor::ExecIndexNLJoin(PhysicalNode* node,
                                             RowBatch outer,
                                             OperatorStats* s) {
  ZDB_ASSIGN_OR_RETURN(const storage::Table* inner,
                       db_->GetTable(node->table_name));
  const storage::OrderedIndex* index =
      db_->FindIndex(node->table_name, node->index_column);
  if (index == nullptr) {
    return Status::NotFound("no index for INLJ on " + node->table_name);
  }
  ZDB_CHECK_LT(node->left_key_slot, outer.num_columns());
  const auto& outer_keys = outer.columns[node->left_key_slot];
  s->input_rows_left = static_cast<int64_t>(outer.num_rows());
  s->index_probes = s->input_rows_left;

  std::optional<TablePredicateEvaluator> residual;
  if (node->predicate.has_value()) {
    residual.emplace(*inner, *node->predicate);
  }

  std::vector<uint32_t> outer_sel;
  std::vector<uint32_t> inner_sel;
  // One index match per outer row is the common case for FK lookups.
  outer_sel.reserve(outer_keys.size());
  inner_sel.reserve(outer_keys.size());
  std::vector<uint32_t> matches;
  for (size_t i = 0; i < outer_keys.size(); ++i) {
    matches.clear();
    s->index_entries += static_cast<int64_t>(
        index->LookupEqual(outer_keys[i], &matches));
    for (uint32_t inner_row : matches) {
      if (residual.has_value()) {
        s->predicate_evals += residual->leaves();
        if (!residual->Matches(inner_row)) continue;
      }
      outer_sel.push_back(static_cast<uint32_t>(i));
      inner_sel.push_back(inner_row);
      if (static_cast<int64_t>(outer_sel.size()) >
          options_.max_intermediate_rows) {
        return Status::OutOfRange("INLJ output exceeds row cap");
      }
    }
  }
  // Random heap fetches on the inner side.
  s->pages_read = index->EstimatedHeight() * s->index_probes + s->index_entries;

  RowBatch batch;
  batch.schema = outer.schema;
  batch.schema.reserve(outer.schema.size() + inner->num_columns());
  batch.columns.reserve(outer.num_columns() + inner->num_columns());
  for (size_t c = 0; c < inner->num_columns(); ++c) {
    batch.schema.push_back(plan::OutputColumn{inner->name(), c, false});
  }
  for (const auto& column : outer.columns) {
    batch.columns.push_back(GatherColumn(column, outer_sel));
  }
  for (size_t c = 0; c < inner->num_columns(); ++c) {
    std::vector<double> full = MaterializeColumn(*inner, c);
    batch.columns.push_back(GatherColumn(full, inner_sel));
  }
  return batch;
}

StatusOr<RowBatch> Executor::ExecSort(PhysicalNode* node, RowBatch child,
                                      OperatorStats* s) {
  const size_t n = child.num_rows();
  s->input_rows_left = static_cast<int64_t>(n);
  s->sort_rows = static_cast<int64_t>(n);

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t slot : node->sort_slots) {
      double va = child.columns[slot][a];
      double vb = child.columns[slot][b];
      if (va != vb) return va < vb;
    }
    return a < b;  // stable tie-break
  });

  RowBatch batch;
  batch.schema = child.schema;
  batch.columns.reserve(child.num_columns());
  for (const auto& column : child.columns) {
    batch.columns.push_back(GatherColumn(column, order));
  }
  return batch;
}

StatusOr<RowBatch> Executor::ExecAggregate(PhysicalNode* node, RowBatch child,
                                           OperatorStats* s) {
  const size_t n = child.num_rows();
  s->input_rows_left = static_cast<int64_t>(n);

  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  const size_t num_aggs = node->aggregates.size();

  auto finalize = [&](const AggState& state, const plan::AggregateExpr& agg) {
    switch (agg.func) {
      case plan::AggFunc::kCount:
        return static_cast<double>(state.count);
      case plan::AggFunc::kSum:
        return state.sum;
      case plan::AggFunc::kAvg:
        return state.count > 0 ? state.sum / static_cast<double>(state.count)
                               : 0.0;
      case plan::AggFunc::kMin:
        return state.count > 0 ? state.min : 0.0;
      case plan::AggFunc::kMax:
        return state.count > 0 ? state.max : 0.0;
    }
    ZDB_CHECK(false);
    return 0.0;
  };

  auto update = [&](AggState* state, const plan::AggregateExpr& agg,
                    size_t row) {
    ++state->count;
    if (agg.input_slot.has_value()) {
      ZDB_CHECK_LT(*agg.input_slot, child.num_columns());
      double v = child.columns[*agg.input_slot][row];
      state->sum += v;
      state->min = std::min(state->min, v);
      state->max = std::max(state->max, v);
    }
  };

  RowBatch batch;
  batch.schema = node->OutputSchema(*db_);

  if (node->type == PhysicalOpType::kSimpleAggregate) {
    std::vector<AggState> states(num_aggs);
    for (size_t row = 0; row < n; ++row) {
      for (size_t a = 0; a < num_aggs; ++a) {
        update(&states[a], node->aggregates[a], row);
      }
    }
    s->group_count = 1;
    batch.columns.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      batch.columns[a].assign(1, finalize(states[a], node->aggregates[a]));
    }
    return batch;
  }

  // Hash aggregate: group rows by the group-by key tuple.
  struct VectorHash {
    size_t operator()(const std::vector<double>& key) const {
      size_t h = 1469598103934665603ULL;
      for (double v : key) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        h = (h ^ bits) * 1099511628211ULL;
      }
      return h;
    }
  };
  std::unordered_map<std::vector<double>, std::vector<AggState>, VectorHash>
      groups;
  std::vector<double> key(node->group_by_slots.size());
  for (size_t row = 0; row < n; ++row) {
    for (size_t g = 0; g < node->group_by_slots.size(); ++g) {
      key[g] = child.columns[node->group_by_slots[g]][row];
    }
    auto [it, inserted] = groups.try_emplace(key, num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      update(&it->second[a], node->aggregates[a], row);
    }
  }
  s->group_count = static_cast<int64_t>(groups.size());

  // Emit groups in sorted key order: hash-table iteration order is an
  // artifact of the hash function and load factor, and letting it leak
  // into the result batch made query output (and everything downstream —
  // recorded runtimes, golden files) differ across runs and libstdc++
  // versions. The collection order itself is irrelevant once sorted.
  std::vector<const std::pair<const std::vector<double>,
                              std::vector<AggState>>*> ordered;
  ordered.reserve(groups.size());
  // zerodb-lint: allow(nondet-iter)
  for (const auto& entry : groups) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) {
              return std::lexicographical_compare(
                  a->first.begin(), a->first.end(), b->first.begin(),
                  b->first.end());
            });

  batch.columns.assign(node->group_by_slots.size() + num_aggs, {});
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    batch.columns[c].reserve(ordered.size());
  }
  for (const auto* entry : ordered) {
    const std::vector<double>& group_key = entry->first;
    const std::vector<AggState>& states = entry->second;
    for (size_t g = 0; g < group_key.size(); ++g) {
      batch.columns[g].push_back(group_key[g]);
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      batch.columns[group_key.size() + a].push_back(
          finalize(states[a], node->aggregates[a]));
    }
  }
  return batch;
}

}  // namespace zerodb::exec
