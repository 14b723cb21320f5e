#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "plan/validate.h"

namespace zerodb::optimizer {

namespace {

using plan::PhysicalNode;
using plan::PhysicalPlan;
using plan::Predicate;
using plan::QuerySpec;

// Inclusive key range extracted from predicate leaves on one column.
struct KeyRange {
  std::optional<double> lo;
  std::optional<double> hi;

  void Narrow(plan::CompareOp op, double literal) {
    switch (op) {
      case plan::CompareOp::kEq:
        lo = lo.has_value() ? std::max(*lo, literal) : literal;
        hi = hi.has_value() ? std::min(*hi, literal) : literal;
        break;
      case plan::CompareOp::kLe:
      case plan::CompareOp::kLt:  // open bound approximated as closed; the
                                  // residual predicate restores exactness
        hi = hi.has_value() ? std::min(*hi, literal) : literal;
        break;
      case plan::CompareOp::kGe:
      case plan::CompareOp::kGt:
        lo = lo.has_value() ? std::max(*lo, literal) : literal;
        break;
      case plan::CompareOp::kNe:
        break;  // not sargable
    }
  }
};

}  // namespace

Planner::Planner(const storage::Database* db,
                 const stats::DatabaseStats* stats, CostParams cost_params,
                 PlannerOptions options)
    : db_(db),
      stats_(stats),
      estimator_(db, stats),
      cost_model_(cost_params),
      options_(std::move(options)) {
  ZDB_CHECK(db != nullptr);
  ZDB_CHECK(stats != nullptr);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  plans_planned_ = registry.GetCounter("optimizer.plans");
  join_candidates_ = registry.GetCounter("optimizer.join_candidates");
  join_candidates_pruned_ =
      registry.GetCounter("optimizer.join_candidates_pruned");
  plan_us_ = registry.GetHistogram("optimizer.plan_us");
}

bool Planner::HasIndex(const std::string& table, size_t column_index) const {
  if (db_->FindIndex(table, column_index) != nullptr) return true;
  for (const HypotheticalIndex& hypo : options_.hypothetical_indexes) {
    if (hypo.table == table && hypo.column_index == column_index) return true;
  }
  return false;
}

bool IndexMayChangePlan(const storage::Database& db,
                        const plan::QuerySpec& query, const std::string& table,
                        size_t column_index) {
  // Mirrors the two places Plan calls HasIndex: filter leaves in PlanScan
  // and the per-edge join-column precompute of the join search.
  for (const plan::FilterSpec& filter : query.filters) {
    if (filter.table != table) continue;
    for (size_t slot : filter.predicate.ReferencedSlots()) {
      if (slot == column_index) return true;
    }
  }
  const storage::Table* t = db.FindTable(table);
  if (t == nullptr) return false;
  for (const plan::JoinSpec& join : query.joins) {
    if ((join.left_table == table &&
         t->schema().FindColumn(join.left_column) == column_index) ||
        (join.right_table == table &&
         t->schema().FindColumn(join.right_column) == column_index)) {
      return true;
    }
  }
  return false;
}

int64_t Planner::IndexHeight(const std::string& table) const {
  const stats::TableStats& table_stats = stats_->GetTable(table);
  double rows = std::max<double>(2.0, static_cast<double>(table_stats.num_rows));
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(std::log(rows) / std::log(256.0))));
}

Planner::AccessPath Planner::PlanScan(const std::string& table,
                                      const Predicate* predicate) const {
  const stats::TableStats& table_stats = stats_->GetTable(table);
  const double out_rows = estimator_.ScanCardinality(table, predicate);
  const int64_t leaves =
      predicate != nullptr ? static_cast<int64_t>(predicate->NumComparisons())
                           : 0;

  AccessPath best;
  best.cardinality = out_rows;
  best.cost = cost_model_.SeqScanCost(table_stats.num_pages,
                                      static_cast<double>(table_stats.num_rows),
                                      leaves, out_rows);
  std::optional<Predicate> seq_predicate;
  if (predicate != nullptr) seq_predicate = *predicate;
  best.node = plan::MakeSeqScan(table, seq_predicate);

  if (predicate != nullptr && options_.enable_index_scan) {
    // Collect sargable ranges per indexed column from top-level AND leaves.
    std::vector<const Predicate*> conjuncts;
    if (predicate->kind() == Predicate::Kind::kAnd) {
      for (const Predicate& child : predicate->children()) {
        if (child.kind() == Predicate::Kind::kCompare) {
          conjuncts.push_back(&child);
        }
      }
    } else if (predicate->kind() == Predicate::Kind::kCompare) {
      conjuncts.push_back(predicate);
    }
    std::vector<std::pair<size_t, KeyRange>> ranges;  // column -> range
    for (const Predicate* leaf : conjuncts) {
      if (!HasIndex(table, leaf->slot())) continue;
      auto it = std::find_if(ranges.begin(), ranges.end(),
                             [&](const auto& r) { return r.first == leaf->slot(); });
      if (it == ranges.end()) {
        ranges.emplace_back(leaf->slot(), KeyRange());
        it = ranges.end() - 1;
      }
      it->second.Narrow(leaf->op(), leaf->literal());
    }
    for (const auto& [column_index, range] : ranges) {
      if (!range.lo.has_value() && !range.hi.has_value()) continue;
      const stats::ColumnStats& column_stats =
          stats_->GetColumn(table, column_index);
      double match_fraction;
      if (range.lo.has_value() && range.hi.has_value() &&
          *range.lo == *range.hi) {
        match_fraction = estimator_.LeafSelectivity(
            table, column_index, plan::CompareOp::kEq, *range.lo);
      } else {
        double lo = range.lo.value_or(column_stats.min);
        double hi = range.hi.value_or(column_stats.max);
        match_fraction = column_stats.histogram.SelectivityRange(lo, hi);
      }
      double matched =
          std::max(1.0, match_fraction * static_cast<double>(table_stats.num_rows));
      double cost = cost_model_.IndexScanCost(IndexHeight(table), matched,
                                              leaves, out_rows);
      if (cost < best.cost) {
        best.cost = cost;
        best.cardinality = out_rows;
        best.node = plan::MakeIndexScan(table, column_index, range.lo,
                                        range.hi, *predicate);
      }
    }
  }

  best.node->est_cardinality = best.cardinality;
  best.node->est_cost = best.cost;
  return best;
}

struct Planner::JoinSearch {
  // The operator a descriptor picked; kScan marks a base table's access path.
  enum class Kind : uint8_t { kScan, kHash, kNestedLoop, kIndexNL };
  struct Table {
    AccessPath access;
    std::optional<Predicate> predicate;  // merged filters, nullopt if none
    size_t num_columns = 0;
    // Inner-side facts of the index nested-loop join candidate.
    double num_rows = 0.0;
    int64_t index_height = 0;
    int64_t residual_leaves = 0;
    size_t offset = 0;  // output position, written by BuildJoinTree
  };
  // A resolved equi-join edge; `*_indexed` is HasIndex on that side's (table,
  // join column), false while index nested-loop joins are disabled.
  struct Edge {
    size_t left_table = 0;
    size_t left_column = 0;
    size_t right_table = 0;
    size_t right_column = 0;
    double selectivity = 0.0;
    bool left_indexed = false;
    bool right_indexed = false;
  };
  // The cheapest plan found so far for one table subset, as a descriptor:
  // `sub` is the left (build / outer) side's subset, `edge` the crossing
  // edge and `sub_has_left` whether `sub` holds that edge's left table.
  struct Entry {
    double cost = std::numeric_limits<double>::infinity();
    bool valid = false;
    Kind kind = Kind::kScan;
    bool sub_has_left = false;
    size_t sub = 0;
    size_t edge = 0;
  };

  const std::vector<std::string>* table_names = nullptr;
  std::vector<Table> tables;
  std::vector<Edge> edges;
  std::vector<double> card;   // per mask: estimated output rows
  std::vector<size_t> width;  // per mask: output columns
  std::vector<Entry> dp;
};

std::unique_ptr<PhysicalNode> Planner::BuildJoinTree(JoinSearch* search,
                                                     size_t mask,
                                                     size_t offset) {
  using Kind = JoinSearch::Kind;
  const JoinSearch::Entry& entry = search->dp[mask];
  if (entry.kind == Kind::kScan) {
    JoinSearch::Table& table = search->tables[__builtin_ctzll(mask)];
    table.offset = offset;
    return std::move(table.access.node);
  }
  const JoinSearch::Edge& edge = search->edges[entry.edge];
  const size_t sub_t = entry.sub_has_left ? edge.left_table : edge.right_table;
  const size_t sub_column =
      entry.sub_has_left ? edge.left_column : edge.right_column;
  const size_t rest_t = entry.sub_has_left ? edge.right_table : edge.left_table;
  const size_t rest_column =
      entry.sub_has_left ? edge.right_column : edge.left_column;
  const size_t rest_offset = offset + search->width[entry.sub];

  std::unique_ptr<PhysicalNode> left = BuildJoinTree(search, entry.sub, offset);
  const size_t left_slot = search->tables[sub_t].offset - offset + sub_column;
  std::unique_ptr<PhysicalNode> node;
  if (entry.kind == Kind::kIndexNL) {
    JoinSearch::Table& inner = search->tables[rest_t];
    inner.offset = rest_offset;
    node = plan::MakeIndexNLJoin(std::move(left),
                                 (*search->table_names)[rest_t], left_slot,
                                 rest_column, std::move(inner.predicate));
  } else {
    std::unique_ptr<PhysicalNode> right =
        BuildJoinTree(search, mask ^ entry.sub, rest_offset);
    const size_t right_slot =
        search->tables[rest_t].offset - rest_offset + rest_column;
    node = entry.kind == Kind::kHash
               ? plan::MakeHashJoin(std::move(left), std::move(right),
                                    left_slot, right_slot)
               : plan::MakeNestedLoopJoin(std::move(left), std::move(right),
                                          left_slot, right_slot);
  }
  node->est_cardinality = search->card[mask];
  node->est_cost = entry.cost;
  return node;
}

StatusOr<PhysicalPlan> Planner::Plan(const QuerySpec& query) const {
  using Kind = JoinSearch::Kind;
  plans_planned_->Add(1);
  obs::ScopedTimer timer(
      obs::MetricsRegistry::Global().enabled() ? plan_us_ : nullptr);
  ZDB_RETURN_NOT_OK(query.Validate(*db_));
  const size_t num_tables = query.tables.size();
  if (num_tables > 12) {
    return Status::InvalidArgument("DP planner supports at most 12 tables");
  }
  if (num_tables > 1 && query.joins.size() != num_tables - 1) {
    return Status::InvalidArgument(
        "join graph must be a tree (n-1 equi-join edges)");
  }

  // Validate guarantees each FROM table appears once, so an ordinal names
  // one table and one run of columns in every join's output.
  auto table_index = [&](const std::string& name) {
    for (size_t i = 0; i < num_tables; ++i) {
      if (query.tables[i] == name) return i;
    }
    ZDB_CHECK(false);
    return size_t{0};
  };

  JoinSearch search;
  search.table_names = &query.tables;
  search.tables.resize(num_tables);

  // Merge per-table predicates.
  for (const plan::FilterSpec& filter : query.filters) {
    std::optional<Predicate>& predicate =
        search.tables[table_index(filter.table)].predicate;
    if (predicate.has_value()) {
      std::vector<Predicate> both = {*predicate, filter.predicate};
      predicate = Predicate::And(std::move(both));
    } else {
      predicate = filter.predicate;
    }
  }

  // Resolved join edges.
  for (const plan::JoinSpec& join : query.joins) {
    JoinSearch::Edge edge;
    edge.left_table = table_index(join.left_table);
    edge.right_table = table_index(join.right_table);
    const storage::Table* left = db_->FindTable(join.left_table);
    const storage::Table* right = db_->FindTable(join.right_table);
    edge.left_column = *left->schema().FindColumn(join.left_column);
    edge.right_column = *right->schema().FindColumn(join.right_column);
    edge.selectivity = estimator_.JoinSelectivity(
        join.left_table, edge.left_column, join.right_table, edge.right_column);
    if (options_.enable_index_nl_join) {
      edge.left_indexed = HasIndex(join.left_table, edge.left_column);
      edge.right_indexed = HasIndex(join.right_table, edge.right_column);
    }
    search.edges.push_back(edge);
  }

  // Base access paths and the per-table facts the DP reads.
  for (size_t t = 0; t < num_tables; ++t) {
    JoinSearch::Table& table = search.tables[t];
    const std::string& name = query.tables[t];
    const Predicate* predicate =
        table.predicate.has_value() ? &*table.predicate : nullptr;
    table.access = PlanScan(name, predicate);
    table.num_columns = db_->FindTable(name)->num_columns();
    table.num_rows = static_cast<double>(stats_->GetTable(name).num_rows);
    table.index_height = IndexHeight(name);
    table.residual_leaves =
        predicate != nullptr ? static_cast<int64_t>(predicate->NumComparisons())
                             : 0;
  }

  // Per-mask estimated cardinality (product of base cardinalities times the
  // selectivity of internal join edges) and output width.
  const size_t full_mask = (size_t{1} << num_tables) - 1;
  search.card.resize(full_mask + 1);
  search.width.assign(full_mask + 1, 0);
  for (size_t mask = 1; mask <= full_mask; ++mask) {
    double card = 1.0;
    for (size_t t = 0; t < num_tables; ++t) {
      if (mask & (size_t{1} << t)) card *= search.tables[t].access.cardinality;
    }
    for (const JoinSearch::Edge& edge : search.edges) {
      if ((mask & (size_t{1} << edge.left_table)) &&
          (mask & (size_t{1} << edge.right_table))) {
        card *= edge.selectivity;
      }
    }
    search.card[mask] = std::max(card, 1.0);
    search.width[mask] = search.width[mask & (mask - 1)] +
                         search.tables[__builtin_ctzll(mask)].num_columns;
  }

  std::vector<JoinSearch::Entry>& dp = search.dp;
  dp.resize(full_mask + 1);
  for (size_t t = 0; t < num_tables; ++t) {
    JoinSearch::Entry& entry = dp[size_t{1} << t];
    entry.cost = search.tables[t].access.cost;
    entry.valid = true;
  }

  // Join candidates considered / rejected, added to the counters once.
  int64_t candidates = 0;
  int64_t pruned = 0;
  for (size_t mask = 1; mask <= full_mask; ++mask) {
    if (__builtin_popcountll(mask) < 2) continue;
    const double out_card = search.card[mask];
    for (size_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const size_t rest = mask ^ sub;
      if (!dp[sub].valid || !dp[rest].valid) continue;
      // Find the crossing edge (tree join graph => at most one).
      size_t crossing = search.edges.size();
      bool sub_has_left = false;
      for (size_t e = 0; e < search.edges.size(); ++e) {
        const JoinSearch::Edge& edge = search.edges[e];
        bool left_in_sub = (sub >> edge.left_table) & 1;
        bool right_in_sub = (sub >> edge.right_table) & 1;
        bool left_in_rest = (rest >> edge.left_table) & 1;
        bool right_in_rest = (rest >> edge.right_table) & 1;
        if ((left_in_sub && right_in_rest) || (right_in_sub && left_in_rest)) {
          crossing = e;
          sub_has_left = left_in_sub;
          break;
        }
      }
      if (crossing == search.edges.size()) continue;  // a cross product
      const JoinSearch::Edge& edge = search.edges[crossing];
      const double sub_card = search.card[sub];
      const double rest_card = search.card[rest];

      // Tallies one DP join candidate; rejected ones count as pruned, an
      // accepted one replaces the mask's descriptor.
      auto consider = [&](double total, Kind kind) {
        ++candidates;
        if (!(total < dp[mask].cost)) {
          ++pruned;
          return;
        }
        dp[mask] = {total, true, kind, sub_has_left, sub, crossing};
      };

      // Candidate 1: hash join, build = sub side, probe = rest side.
      {
        double step = cost_model_.HashJoinCost(sub_card, rest_card, out_card);
        consider(dp[sub].cost + dp[rest].cost + step, Kind::kHash);
      }

      // Candidate 2: nested loop join for tiny inputs.
      if (sub_card <= options_.nlj_row_threshold &&
          rest_card <= options_.nlj_row_threshold) {
        double step =
            cost_model_.NestedLoopJoinCost(sub_card, rest_card, out_card);
        consider(dp[sub].cost + dp[rest].cost + step, Kind::kNestedLoop);
      }

      // Candidate 3: index nested loop join when the rest side is a single
      // base table with an index on its join column.
      if (options_.enable_index_nl_join && __builtin_popcountll(rest) == 1 &&
          (sub_has_left ? edge.right_indexed : edge.left_indexed)) {
        const JoinSearch::Table& inner =
            search.tables[sub_has_left ? edge.right_table : edge.left_table];
        // Matches before the residual: outer rows * per-probe fanout.
        double matched = sub_card * edge.selectivity * inner.num_rows;
        double step = cost_model_.IndexNLJoinCost(
            sub_card, inner.index_height, matched, inner.residual_leaves,
            out_card);
        // The inner scan cost is not paid.
        consider(dp[sub].cost + step, Kind::kIndexNL);
      }
    }
  }

  join_candidates_->Add(candidates);
  join_candidates_pruned_->Add(pruned);

  if (!dp[full_mask].valid) {
    return Status::Internal("planner failed to join all tables");
  }
  std::unique_ptr<PhysicalNode> root = BuildJoinTree(&search, full_mask, 0);
  double total_cost = dp[full_mask].cost;
  double current_card = search.card[full_mask];

  // Aggregation on top; a column's slot in the join output is its table's
  // offset plus its column index.
  if (!query.aggregates.empty() || !query.group_by.empty()) {
    auto root_slot = [&](const std::string& table, const std::string& column) {
      return search.tables[table_index(table)].offset +
             *db_->FindTable(table)->schema().FindColumn(column);
    };
    std::vector<plan::AggregateExpr> aggs;
    for (const plan::AggregateSpec& agg : query.aggregates) {
      plan::AggregateExpr expr;
      expr.func = agg.func;
      if (!agg.table.empty()) {
        expr.input_slot = root_slot(agg.table, agg.column);
      }
      aggs.push_back(expr);
    }
    if (query.group_by.empty()) {
      double step = cost_model_.AggregateCost(current_card, aggs.size(), 1.0);
      total_cost += step;
      root = plan::MakeSimpleAggregate(std::move(root), std::move(aggs));
      root->est_cardinality = 1.0;
      root->est_cost = total_cost;
      current_card = 1.0;
    } else {
      std::vector<size_t> group_slots;
      for (const plan::GroupBySpec& g : query.group_by) {
        group_slots.push_back(root_slot(g.table, g.column));
      }
      double groups = estimator_.GroupCount(query.group_by, current_card);
      double step = cost_model_.AggregateCost(current_card, aggs.size(), groups);
      total_cost += step;
      root = plan::MakeHashAggregate(std::move(root), std::move(group_slots),
                                     std::move(aggs));
      root->est_cardinality = groups;
      root->est_cost = total_cost;
      current_card = groups;
    }
  }

  // Emission gate: every plan the optimizer hands out satisfies the schema,
  // typing and cardinality invariants (debug builds abort on violation).
  ZDB_DCHECK_OK(plan::ValidatePlan(*root, *db_));
  return PhysicalPlan(std::move(root));
}

}  // namespace zerodb::optimizer
