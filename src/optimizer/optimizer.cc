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

size_t FindSlot(const std::vector<plan::OutputColumn>& schema,
                const std::string& table, size_t column_index) {
  for (size_t slot = 0; slot < schema.size(); ++slot) {
    if (!schema[slot].synthetic && schema[slot].table == table &&
        schema[slot].column_index == column_index) {
      return slot;
    }
  }
  ZDB_CHECK(false) << "slot for " << table << "." << column_index
                   << " not found in schema";
  return 0;
}

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
  // Mirrors the two HasIndex call sites: filter leaves in PlanScan and join
  // columns in the index nested-loop join candidate.
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

StatusOr<PhysicalPlan> Planner::Plan(const QuerySpec& query) const {
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

  auto table_index = [&](const std::string& name) {
    for (size_t i = 0; i < num_tables; ++i) {
      if (query.tables[i] == name) return i;
    }
    ZDB_CHECK(false);
    return size_t{0};
  };

  // Merge per-table predicates.
  std::vector<std::optional<Predicate>> predicates(num_tables);
  for (const plan::FilterSpec& filter : query.filters) {
    size_t t = table_index(filter.table);
    if (predicates[t].has_value()) {
      std::vector<Predicate> both = {*predicates[t], filter.predicate};
      predicates[t] = Predicate::And(std::move(both));
    } else {
      predicates[t] = filter.predicate;
    }
  }

  // Resolved join edges.
  struct Edge {
    size_t left_table;
    size_t left_column;
    size_t right_table;
    size_t right_column;
    double selectivity;
  };
  std::vector<Edge> edges;
  for (const plan::JoinSpec& join : query.joins) {
    Edge edge;
    edge.left_table = table_index(join.left_table);
    edge.right_table = table_index(join.right_table);
    const storage::Table* left = db_->FindTable(join.left_table);
    const storage::Table* right = db_->FindTable(join.right_table);
    edge.left_column = *left->schema().FindColumn(join.left_column);
    edge.right_column = *right->schema().FindColumn(join.right_column);
    edge.selectivity = estimator_.JoinSelectivity(
        join.left_table, edge.left_column, join.right_table, edge.right_column);
    edges.push_back(edge);
  }

  // Base access paths.
  std::vector<AccessPath> base(num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    base[t] = PlanScan(query.tables[t],
                       predicates[t].has_value() ? &*predicates[t] : nullptr);
  }

  // Estimated cardinality of a table subset: product of base cardinalities
  // times the selectivity of internal join edges.
  const size_t full_mask = (size_t{1} << num_tables) - 1;
  auto subset_card = [&](size_t mask) {
    double card = 1.0;
    for (size_t t = 0; t < num_tables; ++t) {
      if (mask & (size_t{1} << t)) card *= base[t].cardinality;
    }
    for (const Edge& edge : edges) {
      if ((mask & (size_t{1} << edge.left_table)) &&
          (mask & (size_t{1} << edge.right_table))) {
        card *= edge.selectivity;
      }
    }
    return std::max(card, 1.0);
  };

  struct DpEntry {
    std::unique_ptr<PhysicalNode> node;
    double cost = std::numeric_limits<double>::infinity();
    bool valid = false;
  };
  std::vector<DpEntry> dp(full_mask + 1);
  for (size_t t = 0; t < num_tables; ++t) {
    size_t mask = size_t{1} << t;
    dp[mask].node = base[t].node->Clone();
    dp[mask].cost = base[t].cost;
    dp[mask].valid = true;
  }

  for (size_t mask = 1; mask <= full_mask; ++mask) {
    if (__builtin_popcountll(mask) < 2) continue;
    const double out_card = subset_card(mask);
    for (size_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const size_t rest = mask ^ sub;
      if (!dp[sub].valid || !dp[rest].valid) continue;
      // Find the crossing edge (tree join graph => at most one).
      const Edge* crossing = nullptr;
      bool sub_has_left = false;
      for (const Edge& edge : edges) {
        bool left_in_sub = (sub >> edge.left_table) & 1;
        bool right_in_sub = (sub >> edge.right_table) & 1;
        bool left_in_rest = (rest >> edge.left_table) & 1;
        bool right_in_rest = (rest >> edge.right_table) & 1;
        if ((left_in_sub && right_in_rest) || (right_in_sub && left_in_rest)) {
          crossing = &edge;
          sub_has_left = left_in_sub;
          break;
        }
      }
      if (crossing == nullptr) continue;  // would be a cross product

      const double sub_card = subset_card(sub);
      const double rest_card = subset_card(rest);
      const std::string& sub_table = query.tables[sub_has_left
                                                      ? crossing->left_table
                                                      : crossing->right_table];
      const size_t sub_column =
          sub_has_left ? crossing->left_column : crossing->right_column;
      const std::string& rest_table = query.tables[sub_has_left
                                                       ? crossing->right_table
                                                       : crossing->left_table];
      const size_t rest_column =
          sub_has_left ? crossing->right_column : crossing->left_column;

      // Tallies one DP join candidate; rejected ones count as pruned.
      auto consider = [&](double total) {
        join_candidates_->Add(1);
        bool accepted = total < dp[mask].cost;
        if (!accepted) join_candidates_pruned_->Add(1);
        return accepted;
      };

      // Candidate 1: hash join, build = sub side, probe = rest side.
      {
        double step = cost_model_.HashJoinCost(sub_card, rest_card, out_card);
        double total = dp[sub].cost + dp[rest].cost + step;
        if (consider(total)) {
          auto left = dp[sub].node->Clone();
          auto right = dp[rest].node->Clone();
          size_t left_slot =
              FindSlot(left->OutputSchema(*db_), sub_table, sub_column);
          size_t right_slot =
              FindSlot(right->OutputSchema(*db_), rest_table, rest_column);
          auto node = plan::MakeHashJoin(std::move(left), std::move(right),
                                         left_slot, right_slot);
          node->est_cardinality = out_card;
          node->est_cost = total;
          dp[mask].node = std::move(node);
          dp[mask].cost = total;
          dp[mask].valid = true;
        }
      }

      // Candidate 2: nested loop join for tiny inputs.
      if (sub_card <= options_.nlj_row_threshold &&
          rest_card <= options_.nlj_row_threshold) {
        double step =
            cost_model_.NestedLoopJoinCost(sub_card, rest_card, out_card);
        double total = dp[sub].cost + dp[rest].cost + step;
        if (consider(total)) {
          auto left = dp[sub].node->Clone();
          auto right = dp[rest].node->Clone();
          size_t left_slot =
              FindSlot(left->OutputSchema(*db_), sub_table, sub_column);
          size_t right_slot =
              FindSlot(right->OutputSchema(*db_), rest_table, rest_column);
          auto node = plan::MakeNestedLoopJoin(std::move(left), std::move(right),
                                               left_slot, right_slot);
          node->est_cardinality = out_card;
          node->est_cost = total;
          dp[mask].node = std::move(node);
          dp[mask].cost = total;
          dp[mask].valid = true;
        }
      }

      // Candidate 3: index nested loop join when the rest side is a single
      // base table with an index on its join column.
      if (options_.enable_index_nl_join &&
          __builtin_popcountll(rest) == 1 &&
          HasIndex(rest_table, rest_column)) {
        const stats::TableStats& inner_stats = stats_->GetTable(rest_table);
        size_t rest_t = sub_has_left ? crossing->right_table
                                     : crossing->left_table;
        const Predicate* inner_predicate =
            predicates[rest_t].has_value() ? &*predicates[rest_t] : nullptr;
        int64_t residual_leaves =
            inner_predicate != nullptr
                ? static_cast<int64_t>(inner_predicate->NumComparisons())
                : 0;
        // Matches before the residual: outer rows * per-probe fanout.
        double matched = sub_card * crossing->selectivity *
                         static_cast<double>(inner_stats.num_rows);
        double step = cost_model_.IndexNLJoinCost(
            sub_card, IndexHeight(rest_table), matched, residual_leaves,
            out_card);
        double total = dp[sub].cost + step;  // inner scan cost not paid
        if (consider(total)) {
          auto outer = dp[sub].node->Clone();
          size_t outer_slot =
              FindSlot(outer->OutputSchema(*db_), sub_table, sub_column);
          std::optional<Predicate> residual;
          if (inner_predicate != nullptr) residual = *inner_predicate;
          auto node = plan::MakeIndexNLJoin(std::move(outer), rest_table,
                                            outer_slot, rest_column, residual);
          node->est_cardinality = out_card;
          node->est_cost = total;
          dp[mask].node = std::move(node);
          dp[mask].cost = total;
          dp[mask].valid = true;
        }
      }
    }
  }

  if (!dp[full_mask].valid) {
    return Status::Internal("planner failed to join all tables");
  }
  std::unique_ptr<PhysicalNode> root = std::move(dp[full_mask].node);
  double total_cost = dp[full_mask].cost;
  double current_card = subset_card(full_mask);

  // Aggregation on top.
  if (!query.aggregates.empty() || !query.group_by.empty()) {
    std::vector<plan::OutputColumn> schema = root->OutputSchema(*db_);
    std::vector<plan::AggregateExpr> aggs;
    for (const plan::AggregateSpec& agg : query.aggregates) {
      plan::AggregateExpr expr;
      expr.func = agg.func;
      if (!agg.table.empty()) {
        const storage::Table* table = db_->FindTable(agg.table);
        expr.input_slot =
            FindSlot(schema, agg.table, *table->schema().FindColumn(agg.column));
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
        const storage::Table* table = db_->FindTable(g.table);
        group_slots.push_back(
            FindSlot(schema, g.table, *table->schema().FindColumn(g.column)));
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
