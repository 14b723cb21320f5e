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

// Gathers selected rows of a batch column.
std::vector<double> GatherColumn(const std::vector<double>& column,
                                 const std::vector<uint32_t>& row_ids) {
  std::vector<double> out(row_ids.size());
  for (size_t i = 0; i < row_ids.size(); ++i) out[i] = column[row_ids[i]];
  return out;
}

// Gathers selected rows of a base-table column straight from its typed
// storage buffer, widening int64 and dictionary codes to double per row.
std::vector<double> GatherTableColumn(const storage::Column& column,
                                      const std::vector<uint32_t>& row_ids) {
  std::vector<double> out(row_ids.size());
  if (column.type() == catalog::DataType::kDouble) {
    const double* raw = column.doubles().data();
    for (size_t i = 0; i < row_ids.size(); ++i) out[i] = raw[row_ids[i]];
  } else {
    const int64_t* raw = column.ints().data();
    for (size_t i = 0; i < row_ids.size(); ++i) {
      out[i] = static_cast<double>(raw[row_ids[i]]);
    }
  }
  return out;
}

// A whole base-table column, widened to double.
std::vector<double> WidenTableColumn(const storage::Column& column) {
  if (column.type() == catalog::DataType::kDouble) return column.doubles();
  const std::vector<int64_t>& raw = column.ints();
  return std::vector<double>(raw.begin(), raw.end());
}

// The column an operator reads at `slot`. The slot must be in the batch and
// materialized, so a needed-slot set that missed it fails here, once per
// operator, instead of reading an empty vector.
const std::vector<double>& ReadColumn(const RowBatch& batch, size_t slot) {
  ZDB_CHECK_LT(slot, batch.num_columns());
  ZDB_CHECK_EQ(batch.columns[slot].size(), batch.num_rows())
      << "slot " << slot << " is not materialized";
  return batch.columns[slot];
}

// An output batch of `rows` rows and `num_slots` columns, none of them
// materialized. Operators pass their needed mask's size, which is the
// node's slot count from DeriveOutputSlots.
RowBatch EmptyBatch(size_t num_slots, size_t rows) {
  RowBatch batch;
  batch.columns.resize(num_slots);
  batch.rows = rows;
  return batch;
}

// Fills out->columns[first + c] with rows `row_ids` of every column c of
// `from` whose output slot `first + c` is needed.
void GatherBatchColumns(const RowBatch& from,
                        const std::vector<uint32_t>& row_ids,
                        const std::vector<bool>& needed, size_t first,
                        RowBatch* out) {
  for (size_t c = 0; c < from.num_columns(); ++c) {
    if (needed[first + c]) {
      out->columns[first + c] = GatherColumn(ReadColumn(from, c), row_ids);
    }
  }
}

// The same for the columns of a base table.
void GatherTableColumns(const storage::Table& table,
                        const std::vector<uint32_t>& row_ids,
                        const std::vector<bool>& needed, size_t first,
                        RowBatch* out) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (needed[first + c]) {
      out->columns[first + c] = GatherTableColumn(table.column(c), row_ids);
    }
  }
}

// Evaluates a predicate row by row, filling only the slots it references
// straight from their columns: a base table's typed buffers (scans and the
// IndexNLJoin residual) or a batch's columns (Filter), read in place.
class PredicateEvaluator {
 public:
  PredicateEvaluator(const plan::Predicate& predicate,
                     const storage::Table& table)
      : predicate_(&predicate),
        row_(table.num_columns(), 0.0),
        leaves_(static_cast<int64_t>(predicate.NumComparisons())) {
    for (size_t slot : predicate.ReferencedSlots()) {
      ZDB_CHECK_LT(slot, table.num_columns());
      const storage::Column& column = table.column(slot);
      if (column.type() == catalog::DataType::kDouble) {
        sources_.push_back(Source{slot, nullptr, column.doubles().data()});
      } else {
        sources_.push_back(Source{slot, column.ints().data(), nullptr});
      }
    }
  }

  PredicateEvaluator(const plan::Predicate& predicate, const RowBatch& batch)
      : predicate_(&predicate),
        row_(batch.num_columns(), 0.0),
        leaves_(static_cast<int64_t>(predicate.NumComparisons())) {
    for (size_t slot : predicate.ReferencedSlots()) {
      sources_.push_back(Source{slot, nullptr, ReadColumn(batch, slot).data()});
    }
  }

  bool Matches(size_t row) {
    for (const Source& source : sources_) {
      row_[source.slot] = source.doubles != nullptr
                              ? source.doubles[row]
                              : static_cast<double>(source.ints[row]);
    }
    return predicate_->Evaluate(row_);
  }

  int64_t leaves() const { return leaves_; }

 private:
  // One referenced slot and its column; exactly one buffer is set.
  struct Source {
    size_t slot;
    const int64_t* ints;
    const double* doubles;
  };
  // Borrowed from the PhysicalPlan being executed and its database, which
  // strictly outlive this per-operator evaluator (all live inside one
  // Execute call).
  const plan::Predicate* predicate_;
  std::vector<Source> sources_;
  std::vector<double> row_;
  int64_t leaves_;
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

using NeededMap = std::unordered_map<const PhysicalNode*, std::vector<bool>>;

void MarkSlot(std::vector<bool>* mask, size_t slot) {
  ZDB_CHECK_LT(slot, mask->size());
  (*mask)[slot] = true;
}

// Sets in each child's mask the slots `node` reads from it: the slots its
// own parent reads that pass through `node`, plus the operator's own inputs.
// Top-down, so a node's mask is final before its children are visited.
void MarkReads(const PhysicalNode& node, NeededMap* needed) {
  const std::vector<bool>& out = needed->at(&node);
  auto child_mask = [&](size_t i) {
    return &needed->at(node.children[i].get());
  };
  switch (node.type) {
    case PhysicalOpType::kSeqScan:
    case PhysicalOpType::kIndexScan:
      return;
    case PhysicalOpType::kFilter: {
      std::vector<bool>* in = child_mask(0);
      *in = out;
      if (node.predicate.has_value()) {
        for (size_t slot : node.predicate->ReferencedSlots()) {
          MarkSlot(in, slot);
        }
      }
      break;
    }
    case PhysicalOpType::kSort: {
      std::vector<bool>* in = child_mask(0);
      *in = out;
      for (size_t slot : node.sort_slots) MarkSlot(in, slot);
      break;
    }
    case PhysicalOpType::kHashJoin:
    case PhysicalOpType::kNestedLoopJoin: {
      std::vector<bool>* left = child_mask(0);
      std::vector<bool>* right = child_mask(1);
      const auto split = out.begin() + static_cast<ptrdiff_t>(left->size());
      std::copy(out.begin(), split, left->begin());
      std::copy(split, out.end(), right->begin());
      MarkSlot(left, node.left_key_slot);
      MarkSlot(right, node.right_key_slot);
      break;
    }
    case PhysicalOpType::kIndexNLJoin: {
      std::vector<bool>* outer = child_mask(0);
      std::copy(out.begin(),
                out.begin() + static_cast<ptrdiff_t>(outer->size()),
                outer->begin());
      MarkSlot(outer, node.left_key_slot);
      break;
    }
    case PhysicalOpType::kHashAggregate:
    case PhysicalOpType::kSimpleAggregate: {
      std::vector<bool>* in = child_mask(0);
      for (size_t slot : node.group_by_slots) MarkSlot(in, slot);
      for (const plan::AggregateExpr& agg : node.aggregates) {
        if (agg.input_slot.has_value()) MarkSlot(in, *agg.input_slot);
      }
      break;
    }
  }
  for (const auto& child : node.children) MarkReads(*child, needed);
}

}  // namespace

// What Execute derives from a plan before any operator runs.
struct Executor::PlanFacts {
  /// Every node's output slots: their count sizes `needed`, their width
  /// gives OperatorStats::output_bytes.
  plan::PlanSlots slots;
  /// Per output slot: does the node's parent read it? All set at the root.
  NeededMap needed;
};

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
  query_us_ = registry_->GetHistogram("exec.query_us");
}

StatusOr<ExecutionResult> Executor::Execute(plan::PhysicalPlan* plan) {
  ZDB_CHECK(plan != nullptr && plan->root != nullptr);
  const PhysicalNode& root = *plan->root;
  // Every node's output slots, derived once: both validation gates and the
  // column masks read them.
  StatusOr<plan::PlanSlots> slots = plan::DeriveOutputSlots(root, *db_);
  // Open-path invariant gate: plan structure, slot references and
  // expression types must be consistent before any operator touches data.
  ZDB_DCHECK_OK(slots.ok() ? plan::ValidatePlan(root, *db_, *slots)
                           : slots.status());
  queries_executed_->Add(1);
  obs::ScopedTimer timer(registry_->enabled() ? query_us_ : nullptr);
  // Before any operator runs, decide which columns each one materializes:
  // the root's whole output, every other node's only what its parent reads.
  PlanFacts facts;
  ZDB_ASSIGN_OR_RETURN(facts.slots, std::move(slots));
  root.Visit([&](const PhysicalNode& node) {
    facts.needed[&node].assign(facts.slots.NumSlots(node), false);
  });
  std::vector<bool>& root_mask = facts.needed.at(&root);
  root_mask.assign(root_mask.size(), true);
  MarkReads(root, &facts.needed);
  ExecutionResult result;
  ZDB_ASSIGN_OR_RETURN(result.output,
                       ExecuteNode(plan->root.get(), facts, &result));
  // Post-condition: the true cardinalities just recorded must respect the
  // relational bounds (filters shrink, sorts preserve, joins stay under the
  // cross product), so every query execution doubles as a verification run.
  ZDB_DCHECK_OK(plan::ValidatePlan(root, *db_, facts.slots));
  return result;
}

StatusOr<RowBatch> Executor::ExecuteNode(PhysicalNode* node,
                                         const PlanFacts& facts,
                                         ExecutionResult* result) {
  // The event opens before the child recursion in the switch, so child
  // events nest inside it; its time covers the whole subtree.
  obs::TimelineScope timeline(plan::PhysicalOpName(node->type), "exec",
                              options_.recorder != nullptr
                                  ? options_.recorder
                                  : obs::TraceEventRecorder::Global());
  const std::vector<bool>& needed = facts.needed.at(node);
  auto child = [&](size_t i) {
    return ExecuteNode(node->children[i].get(), facts, result);
  };
  OperatorStats stats;
  StatusOr<RowBatch> batch_or = [&]() -> StatusOr<RowBatch> {
    switch (node->type) {
      case PhysicalOpType::kSeqScan:
        return ExecSeqScan(node, needed, &stats);
      case PhysicalOpType::kIndexScan:
        return ExecIndexScan(node, needed, &stats);
      case PhysicalOpType::kFilter: {
        ZDB_ASSIGN_OR_RETURN(RowBatch input, child(0));
        return ExecFilter(node, needed, std::move(input), &stats);
      }
      case PhysicalOpType::kHashJoin: {
        ZDB_ASSIGN_OR_RETURN(RowBatch left, child(0));
        ZDB_ASSIGN_OR_RETURN(RowBatch right, child(1));
        return ExecHashJoin(node, needed, std::move(left), std::move(right),
                            &stats);
      }
      case PhysicalOpType::kNestedLoopJoin: {
        ZDB_ASSIGN_OR_RETURN(RowBatch left, child(0));
        ZDB_ASSIGN_OR_RETURN(RowBatch right, child(1));
        return ExecNestedLoopJoin(node, needed, std::move(left),
                                  std::move(right), &stats);
      }
      case PhysicalOpType::kIndexNLJoin: {
        ZDB_ASSIGN_OR_RETURN(RowBatch outer, child(0));
        return ExecIndexNLJoin(node, needed, std::move(outer), &stats);
      }
      case PhysicalOpType::kSort: {
        ZDB_ASSIGN_OR_RETURN(RowBatch input, child(0));
        return ExecSort(node, needed, std::move(input), &stats);
      }
      case PhysicalOpType::kHashAggregate:
      case PhysicalOpType::kSimpleAggregate: {
        ZDB_ASSIGN_OR_RETURN(RowBatch input, child(0));
        return ExecAggregate(node, needed, std::move(input), &stats);
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
  stats.output_bytes = stats.output_rows * facts.slots.WidthBytes(*node);
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
                                         const std::vector<bool>& needed,
                                         OperatorStats* s) {
  ZDB_ASSIGN_OR_RETURN(const storage::Table* table,
                       db_->GetTable(node->table_name));
  const size_t n = table->num_rows();
  s->rows_scanned = static_cast<int64_t>(n);
  s->input_rows_left = static_cast<int64_t>(n);
  s->pages_read = table->NumPages();

  if (!node->predicate.has_value()) {  // every row: no row list to gather by
    RowBatch batch = EmptyBatch(needed.size(), n);
    for (size_t c = 0; c < table->num_columns(); ++c) {
      if (needed[c]) batch.columns[c] = WidenTableColumn(table->column(c));
    }
    return batch;
  }
  PredicateEvaluator evaluator(*node->predicate, *table);
  s->predicate_evals = evaluator.leaves() * static_cast<int64_t>(n);
  std::vector<uint32_t> selected;
  selected.reserve(n);  // worst case: every row matches
  for (size_t row = 0; row < n; ++row) {
    if (evaluator.Matches(row)) selected.push_back(static_cast<uint32_t>(row));
  }
  RowBatch batch = EmptyBatch(needed.size(), selected.size());
  GatherTableColumns(*table, selected, needed, 0, &batch);
  return batch;
}

StatusOr<RowBatch> Executor::ExecIndexScan(PhysicalNode* node,
                                           const std::vector<bool>& needed,
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
    PredicateEvaluator evaluator(*node->predicate, *table);
    s->predicate_evals =
        evaluator.leaves() * static_cast<int64_t>(matched.size());
    selected.reserve(matched.size());  // worst case: every match passes
    for (uint32_t row : matched) {
      if (evaluator.Matches(row)) selected.push_back(row);
    }
  } else {
    selected = std::move(matched);
  }

  RowBatch batch = EmptyBatch(needed.size(), selected.size());
  GatherTableColumns(*table, selected, needed, 0, &batch);
  return batch;
}

StatusOr<RowBatch> Executor::ExecFilter(PhysicalNode* node,
                                        const std::vector<bool>& needed,
                                        RowBatch child, OperatorStats* s) {
  ZDB_CHECK(node->predicate.has_value());
  const size_t n = child.num_rows();
  s->input_rows_left = static_cast<int64_t>(n);

  PredicateEvaluator evaluator(*node->predicate, child);
  s->predicate_evals = evaluator.leaves() * static_cast<int64_t>(n);
  std::vector<uint32_t> selected;
  selected.reserve(n);  // worst case: every row passes
  for (size_t i = 0; i < n; ++i) {
    if (evaluator.Matches(i)) selected.push_back(static_cast<uint32_t>(i));
  }
  RowBatch batch = EmptyBatch(needed.size(), selected.size());
  GatherBatchColumns(child, selected, needed, 0, &batch);
  return batch;
}

StatusOr<RowBatch> Executor::ExecHashJoin(PhysicalNode* node,
                                          const std::vector<bool>& needed,
                                          RowBatch left, RowBatch right,
                                          OperatorStats* s) {
  const auto& build_keys = ReadColumn(left, node->left_key_slot);
  const auto& probe_keys = ReadColumn(right, node->right_key_slot);
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

  RowBatch batch = EmptyBatch(needed.size(), left_sel.size());
  GatherBatchColumns(left, left_sel, needed, 0, &batch);
  GatherBatchColumns(right, right_sel, needed, left.num_columns(), &batch);
  return batch;
}

StatusOr<RowBatch> Executor::ExecNestedLoopJoin(PhysicalNode* node,
                                                const std::vector<bool>& needed,
                                                RowBatch left, RowBatch right,
                                                OperatorStats* s) {
  const auto& left_keys = ReadColumn(left, node->left_key_slot);
  const auto& right_keys = ReadColumn(right, node->right_key_slot);
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

  RowBatch batch = EmptyBatch(needed.size(), left_sel.size());
  GatherBatchColumns(left, left_sel, needed, 0, &batch);
  GatherBatchColumns(right, right_sel, needed, left.num_columns(), &batch);
  return batch;
}

StatusOr<RowBatch> Executor::ExecIndexNLJoin(PhysicalNode* node,
                                             const std::vector<bool>& needed,
                                             RowBatch outer,
                                             OperatorStats* s) {
  ZDB_ASSIGN_OR_RETURN(const storage::Table* inner,
                       db_->GetTable(node->table_name));
  const storage::OrderedIndex* index =
      db_->FindIndex(node->table_name, node->index_column);
  if (index == nullptr) {
    return Status::NotFound("no index for INLJ on " + node->table_name);
  }
  const auto& outer_keys = ReadColumn(outer, node->left_key_slot);
  s->input_rows_left = static_cast<int64_t>(outer.num_rows());
  s->index_probes = s->input_rows_left;

  std::optional<PredicateEvaluator> residual;
  if (node->predicate.has_value()) {
    residual.emplace(*node->predicate, *inner);
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

  RowBatch batch = EmptyBatch(needed.size(), outer_sel.size());
  GatherBatchColumns(outer, outer_sel, needed, 0, &batch);
  GatherTableColumns(*inner, inner_sel, needed, outer.num_columns(), &batch);
  return batch;
}

StatusOr<RowBatch> Executor::ExecSort(PhysicalNode* node,
                                      const std::vector<bool>& needed,
                                      RowBatch child, OperatorStats* s) {
  const size_t n = child.num_rows();
  s->input_rows_left = static_cast<int64_t>(n);
  s->sort_rows = static_cast<int64_t>(n);

  std::vector<const double*> keys;
  keys.reserve(node->sort_slots.size());
  for (size_t slot : node->sort_slots) {
    keys.push_back(ReadColumn(child, slot).data());
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (const double* key : keys) {
      if (key[a] != key[b]) return key[a] < key[b];
    }
    return a < b;  // stable tie-break
  });

  RowBatch batch = EmptyBatch(needed.size(), n);
  GatherBatchColumns(child, order, needed, 0, &batch);
  return batch;
}

StatusOr<RowBatch> Executor::ExecAggregate(PhysicalNode* node,
                                           const std::vector<bool>& needed,
                                           RowBatch child, OperatorStats* s) {
  const size_t n = child.num_rows();
  s->input_rows_left = static_cast<int64_t>(n);

  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  const size_t num_aggs = node->aggregates.size();
  // Each aggregate's input column, checked once here rather than per row;
  // nullptr for COUNT(*).
  std::vector<const double*> inputs(num_aggs, nullptr);
  for (size_t a = 0; a < num_aggs; ++a) {
    const std::optional<size_t>& slot = node->aggregates[a].input_slot;
    if (slot.has_value()) inputs[a] = ReadColumn(child, *slot).data();
  }

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

  auto update = [&](AggState* state, const double* input, size_t row) {
    ++state->count;
    if (input != nullptr) {
      double v = input[row];
      state->sum += v;
      state->min = std::min(state->min, v);
      state->max = std::max(state->max, v);
    }
  };

  std::vector<const double*> group_columns;
  group_columns.reserve(node->group_by_slots.size());
  for (size_t slot : node->group_by_slots) {
    group_columns.push_back(ReadColumn(child, slot).data());
  }

  if (node->type == PhysicalOpType::kSimpleAggregate) {
    std::vector<AggState> states(num_aggs);
    for (size_t row = 0; row < n; ++row) {
      for (size_t a = 0; a < num_aggs; ++a) {
        update(&states[a], inputs[a], row);
      }
    }
    s->group_count = 1;
    RowBatch batch = EmptyBatch(needed.size(), 1);
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
  std::vector<double> key(group_columns.size());
  for (size_t row = 0; row < n; ++row) {
    for (size_t g = 0; g < group_columns.size(); ++g) {
      key[g] = group_columns[g][row];
    }
    auto [it, inserted] = groups.try_emplace(key, num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      update(&it->second[a], inputs[a], row);
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

  RowBatch batch = EmptyBatch(needed.size(), ordered.size());
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
