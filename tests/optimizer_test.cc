#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "plan/fingerprint.h"
#include "runtime/simulator.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace zerodb::optimizer {
namespace {

using plan::CompareOp;
using plan::PhysicalOpType;
using plan::Predicate;
using plan::QuerySpec;

datagen::DatabaseEnv MakeEnv() { return datagen::MakeImdbEnv(17, 0.05); }

TEST(CostModelTest, MonotoneInWork) {
  CostModel model;
  EXPECT_LT(model.SeqScanCost(10, 1000, 1, 100),
            model.SeqScanCost(100, 10000, 1, 100));
  EXPECT_LT(model.HashJoinCost(100, 100, 100),
            model.HashJoinCost(10000, 10000, 100));
  EXPECT_LT(model.SortCost(100), model.SortCost(100000));
  EXPECT_LT(model.IndexScanCost(3, 10, 1, 10),
            model.IndexScanCost(3, 10000, 1, 10));
}

TEST(PlannerTest, SingleTableSeqScan) {
  auto env = MakeEnv();
  Planner planner(env.db.get(), &env.stats);
  QuerySpec query;
  query.tables = {"title"};
  query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  auto plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PhysicalOpType::kSimpleAggregate);
  EXPECT_EQ(plan->root->children[0]->type, PhysicalOpType::kSeqScan);
  EXPECT_GT(plan->root->est_cost, 0.0);
  EXPECT_DOUBLE_EQ(plan->root->est_cardinality, 1.0);
}

TEST(PlannerTest, SelectiveIndexScanChosen) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.db->CreateIndex("title", "production_year").ok());
  Planner planner(env.db.get(), &env.stats);
  QuerySpec query;
  query.tables = {"title"};
  size_t year_col = *env.db->FindTable("title")->schema().FindColumn(
      "production_year");
  query.filters = {plan::FilterSpec{
      "title", Predicate::Compare(year_col, CompareOp::kEq, 1895)}};
  auto plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PhysicalOpType::kIndexScan);
  EXPECT_EQ(plan->root->index_column, year_col);
  ASSERT_TRUE(plan->root->range_lo.has_value());
  EXPECT_DOUBLE_EQ(*plan->root->range_lo, 1895.0);
}

TEST(PlannerTest, UnselectivePredicateKeepsSeqScan) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.db->CreateIndex("title", "production_year").ok());
  Planner planner(env.db.get(), &env.stats);
  QuerySpec query;
  query.tables = {"title"};
  size_t year_col = *env.db->FindTable("title")->schema().FindColumn(
      "production_year");
  // year >= 0 matches everything: an index scan would be absurd.
  query.filters = {plan::FilterSpec{
      "title", Predicate::Compare(year_col, CompareOp::kGe, 0)}};
  auto plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PhysicalOpType::kSeqScan);
}

TEST(PlannerTest, TwoWayJoinProducesJoinPlan) {
  auto env = MakeEnv();
  Planner planner(env.db.get(), &env.stats);
  QuerySpec query;
  query.tables = {"title", "cast_info"};
  query.joins = {plan::JoinSpec{"cast_info", "movie_id", "title", "id"}};
  query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  auto plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok());
  const plan::PhysicalNode* agg = plan->root.get();
  ASSERT_EQ(agg->children.size(), 1u);
  const plan::PhysicalNode* join = agg->children[0].get();
  EXPECT_TRUE(join->type == PhysicalOpType::kHashJoin ||
              join->type == PhysicalOpType::kNestedLoopJoin);
}

TEST(PlannerTest, IndexNLJoinUsedWithIndexAndSelectiveOuter) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.db->CreateIndex("cast_info", "movie_id").ok());
  Planner planner(env.db.get(), &env.stats);
  QuerySpec query;
  query.tables = {"title", "cast_info"};
  query.joins = {plan::JoinSpec{"cast_info", "movie_id", "title", "id"}};
  size_t year_col = *env.db->FindTable("title")->schema().FindColumn(
      "production_year");
  // Highly selective filter on the outer side makes INLJ attractive.
  query.filters = {plan::FilterSpec{
      "title", Predicate::Compare(year_col, CompareOp::kEq, 1895)}};
  query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  auto plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok());
  bool has_inlj = false;
  plan->root->Visit([&](const plan::PhysicalNode& node) {
    if (node.type == PhysicalOpType::kIndexNLJoin) has_inlj = true;
  });
  EXPECT_TRUE(has_inlj);
}

TEST(PlannerTest, HypotheticalIndexEnablesIndexPlans) {
  auto env = MakeEnv();  // no real indexes
  size_t year_col = *env.db->FindTable("title")->schema().FindColumn(
      "production_year");
  PlannerOptions options;
  options.hypothetical_indexes = {HypotheticalIndex{"title", year_col}};
  Planner planner(env.db.get(), &env.stats, CostParams(), options);
  QuerySpec query;
  query.tables = {"title"};
  query.filters = {plan::FilterSpec{
      "title", Predicate::Compare(year_col, CompareOp::kEq, 1895)}};
  auto plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PhysicalOpType::kIndexScan);
  // The hypothetical plan cannot be executed (no real index).
  exec::Executor executor(env.db.get());
  EXPECT_FALSE(executor.Execute(&*plan).ok());
}

TEST(PlannerTest, DisablingIndexScansForcesSeq) {
  auto env = MakeEnv();
  ASSERT_TRUE(env.db->CreateIndex("title", "production_year").ok());
  PlannerOptions options;
  options.enable_index_scan = false;
  options.enable_index_nl_join = false;
  Planner planner(env.db.get(), &env.stats, CostParams(), options);
  QuerySpec query;
  query.tables = {"title"};
  size_t year_col = *env.db->FindTable("title")->schema().FindColumn(
      "production_year");
  query.filters = {plan::FilterSpec{
      "title", Predicate::Compare(year_col, CompareOp::kEq, 1895)}};
  auto plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PhysicalOpType::kSeqScan);
}

TEST(PlannerTest, RejectsCyclicJoinGraph) {
  auto env = MakeEnv();
  Planner planner(env.db.get(), &env.stats);
  QuerySpec query;
  query.tables = {"title", "cast_info"};
  query.joins = {plan::JoinSpec{"cast_info", "movie_id", "title", "id"},
                 plan::JoinSpec{"cast_info", "id", "title", "id"}};
  EXPECT_FALSE(planner.Plan(query).ok());
}

TEST(PlannerTest, PlansExecuteCorrectly) {
  // The planner's plans must compute the same answer as a canonical
  // hand-built plan, for many random queries.
  auto env = MakeEnv();
  ASSERT_TRUE(env.db->CreateIndex("cast_info", "movie_id").ok());
  Planner planner(env.db.get(), &env.stats);
  exec::Executor executor(env.db.get());
  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(), 99);
  int checked = 0;
  for (int i = 0; i < 20; ++i) {
    QuerySpec query = generator.Next();
    auto plan = planner.Plan(query);
    ASSERT_TRUE(plan.ok()) << query.ToSql(*env.db);
    auto result = executor.Execute(&*plan);
    if (!result.ok()) continue;  // row-cap rejection is fine

    // Reference: force hash joins and seq scans only.
    PlannerOptions reference_options;
    reference_options.enable_index_scan = false;
    reference_options.enable_index_nl_join = false;
    reference_options.nlj_row_threshold = 0;
    Planner reference(env.db.get(), &env.stats, CostParams(),
                      reference_options);
    auto ref_plan = reference.Plan(query);
    ASSERT_TRUE(ref_plan.ok());
    auto ref_result = executor.Execute(&*ref_plan);
    ASSERT_TRUE(ref_result.ok());

    ASSERT_EQ(result->output.num_rows(), ref_result->output.num_rows())
        << query.ToSql(*env.db);
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(PlannerTest, EstimatesAreAnnotated) {
  auto env = MakeEnv();
  Planner planner(env.db.get(), &env.stats);
  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(), 7);
  for (int i = 0; i < 10; ++i) {
    auto plan = planner.Plan(generator.Next());
    ASSERT_TRUE(plan.ok());
    plan->root->Visit([](const plan::PhysicalNode& node) {
      EXPECT_GT(node.est_cardinality, 0.0);
      EXPECT_GT(node.est_cost, 0.0);
    });
  }
}

TEST(PlannerTest, IrrelevantIndexesLeavePlanUnchanged) {
  // IndexMayChangePlan must admit every index the planner can consult: with
  // every index it rejects added as hypothetical, each plan keeps its
  // fingerprint. Fails if the planner starts consulting indexes somewhere new.
  auto env = MakeEnv();
  Planner plain(env.db.get(), &env.stats);
  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(), 23);
  size_t other_table = 0;
  size_t scanned_non_predicate = 0;
  size_t group_or_aggregate = 0;
  size_t plans_changed_by_relevant = 0;
  for (int i = 0; i < 40; ++i) {
    QuerySpec query = generator.Next();
    PlannerOptions irrelevant;
    PlannerOptions relevant;
    for (const storage::Table& table : env.db->tables()) {
      const bool scanned =
          std::find(query.tables.begin(), query.tables.end(), table.name()) !=
          query.tables.end();
      for (size_t c = 0; c < table.num_columns(); ++c) {
        const HypotheticalIndex index{table.name(), c};
        if (IndexMayChangePlan(*env.db, query, table.name(), c)) {
          relevant.hypothetical_indexes.push_back(index);
          continue;
        }
        irrelevant.hypothetical_indexes.push_back(index);
        if (!scanned) {
          ++other_table;
          continue;
        }
        ++scanned_non_predicate;
        const std::string& column = table.schema().column(c).name;
        for (const plan::GroupBySpec& g : query.group_by) {
          if (g.table == table.name() && g.column == column) {
            ++group_or_aggregate;
          }
        }
        for (const plan::AggregateSpec& agg : query.aggregates) {
          if (agg.table == table.name() && agg.column == column) {
            ++group_or_aggregate;
          }
        }
      }
    }
    auto base = plain.Plan(query);
    ASSERT_TRUE(base.ok()) << query.ToSql(*env.db);
    auto with_irrelevant =
        Planner(env.db.get(), &env.stats, CostParams(), irrelevant).Plan(query);
    ASSERT_TRUE(with_irrelevant.ok());
    EXPECT_EQ(plan::FingerprintPlan(*with_irrelevant),
              plan::FingerprintPlan(*base))
        << query.ToSql(*env.db);
    auto with_relevant =
        Planner(env.db.get(), &env.stats, CostParams(), relevant).Plan(query);
    ASSERT_TRUE(with_relevant.ok());
    if (plan::FingerprintPlan(*with_relevant) != plan::FingerprintPlan(*base)) {
      ++plans_changed_by_relevant;
    }
  }
  EXPECT_GT(other_table, 0u);
  EXPECT_GT(scanned_non_predicate, 0u);
  EXPECT_GT(group_or_aggregate, 0u);
  // The fingerprint does see index choices.
  EXPECT_GT(plans_changed_by_relevant, 0u);
}

// --- Differential test: descriptor DP vs. the clone-based DP it replaced ---

// (table, column) provenance of each output slot of a join tree, rebuilt
// from the tree itself: base tables in leaf order, an IndexNLJoin's inner
// table after its outer input.
using ReferenceSchema = std::vector<std::pair<std::string, size_t>>;

ReferenceSchema ReferenceSchemaOf(const plan::PhysicalNode& node,
                                  const storage::Database& db) {
  ReferenceSchema schema;
  for (const auto& child : node.children) {
    ReferenceSchema columns = ReferenceSchemaOf(*child, db);
    schema.insert(schema.end(), columns.begin(), columns.end());
  }
  if (!node.table_name.empty()) {
    for (size_t c = 0; c < db.FindTable(node.table_name)->num_columns(); ++c) {
      schema.emplace_back(node.table_name, c);
    }
  }
  return schema;
}

size_t ReferenceFindSlot(const ReferenceSchema& schema,
                         const std::string& table, size_t column_index) {
  for (size_t slot = 0; slot < schema.size(); ++slot) {
    if (schema[slot].first == table && schema[slot].second == column_index) {
      return slot;
    }
  }
  ADD_FAILURE() << "slot for " << table << "." << column_index
                << " not found in schema";
  return 0;
}

struct ReferenceResult {
  plan::PhysicalPlan plan;
  int64_t join_candidates = 0;
  int64_t join_candidates_pruned = 0;
};

// The planner's join DP as it was before the descriptor search: every
// accepted candidate deep-clones both subplans and finds its key slots in
// their rebuilt output schemas. Base access paths come from single-table
// plans of the planner under test (PlanScan is shared, not part of the DP).
// The two join-candidate tallies are returned instead of counted.
ReferenceResult ReferencePlan(const datagen::DatabaseEnv& env,
                              const PlannerOptions& options,
                              const QuerySpec& query) {
  using plan::PhysicalNode;
  const storage::Database& db = *env.db;
  const Planner planner(&db, &env.stats, CostParams(), options);
  const CostModel& cost_model = planner.cost_model();
  const stats::CardinalityEstimator estimator(&db, &env.stats);
  auto has_index = [&](const std::string& table, size_t column_index) {
    if (db.FindIndex(table, column_index) != nullptr) return true;
    for (const HypotheticalIndex& hypo : options.hypothetical_indexes) {
      if (hypo.table == table && hypo.column_index == column_index) {
        return true;
      }
    }
    return false;
  };
  auto index_height = [&](const std::string& table) {
    double rows = std::max<double>(
        2.0, static_cast<double>(env.stats.GetTable(table).num_rows));
    return std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(std::log(rows) / std::log(256.0))));
  };

  ReferenceResult result;
  const size_t num_tables = query.tables.size();
  auto table_index = [&](const std::string& name) {
    for (size_t i = 0; i < num_tables; ++i) {
      if (query.tables[i] == name) return i;
    }
    ADD_FAILURE() << "unknown table " << name;
    return size_t{0};
  };

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
    edge.left_column =
        *db.FindTable(join.left_table)->schema().FindColumn(join.left_column);
    edge.right_column = *db.FindTable(join.right_table)
                             ->schema()
                             .FindColumn(join.right_column);
    edge.selectivity = estimator.JoinSelectivity(
        join.left_table, edge.left_column, join.right_table, edge.right_column);
    edges.push_back(edge);
  }

  struct AccessPath {
    std::unique_ptr<PhysicalNode> node;
    double cardinality = 0.0;
    double cost = 0.0;
  };
  std::vector<AccessPath> base(num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    QuerySpec scan;
    scan.tables = {query.tables[t]};
    for (const plan::FilterSpec& filter : query.filters) {
      if (filter.table == query.tables[t]) scan.filters.push_back(filter);
    }
    StatusOr<plan::PhysicalPlan> scan_plan = planner.Plan(scan);
    if (!scan_plan.ok()) {
      ADD_FAILURE() << scan_plan.status().ToString();
      return result;
    }
    base[t].node = std::move(scan_plan->root);
    base[t].cardinality = base[t].node->est_cardinality;
    base[t].cost = base[t].node->est_cost;
  }

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
      if (crossing == nullptr) continue;

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

      auto consider = [&](double total) {
        ++result.join_candidates;
        bool accepted = total < dp[mask].cost;
        if (!accepted) ++result.join_candidates_pruned;
        return accepted;
      };

      {
        double step = cost_model.HashJoinCost(sub_card, rest_card, out_card);
        double total = dp[sub].cost + dp[rest].cost + step;
        if (consider(total)) {
          auto left = dp[sub].node->Clone();
          auto right = dp[rest].node->Clone();
          size_t left_slot = ReferenceFindSlot(ReferenceSchemaOf(*left, db),
                                               sub_table, sub_column);
          size_t right_slot = ReferenceFindSlot(ReferenceSchemaOf(*right, db),
                                                rest_table, rest_column);
          auto node = plan::MakeHashJoin(std::move(left), std::move(right),
                                         left_slot, right_slot);
          node->est_cardinality = out_card;
          node->est_cost = total;
          dp[mask].node = std::move(node);
          dp[mask].cost = total;
          dp[mask].valid = true;
        }
      }

      if (sub_card <= options.nlj_row_threshold &&
          rest_card <= options.nlj_row_threshold) {
        double step =
            cost_model.NestedLoopJoinCost(sub_card, rest_card, out_card);
        double total = dp[sub].cost + dp[rest].cost + step;
        if (consider(total)) {
          auto left = dp[sub].node->Clone();
          auto right = dp[rest].node->Clone();
          size_t left_slot = ReferenceFindSlot(ReferenceSchemaOf(*left, db),
                                               sub_table, sub_column);
          size_t right_slot = ReferenceFindSlot(ReferenceSchemaOf(*right, db),
                                                rest_table, rest_column);
          auto node = plan::MakeNestedLoopJoin(
              std::move(left), std::move(right), left_slot, right_slot);
          node->est_cardinality = out_card;
          node->est_cost = total;
          dp[mask].node = std::move(node);
          dp[mask].cost = total;
          dp[mask].valid = true;
        }
      }

      if (options.enable_index_nl_join && __builtin_popcountll(rest) == 1 &&
          has_index(rest_table, rest_column)) {
        const stats::TableStats& inner_stats = env.stats.GetTable(rest_table);
        size_t rest_t =
            sub_has_left ? crossing->right_table : crossing->left_table;
        const Predicate* inner_predicate =
            predicates[rest_t].has_value() ? &*predicates[rest_t] : nullptr;
        int64_t residual_leaves =
            inner_predicate != nullptr
                ? static_cast<int64_t>(inner_predicate->NumComparisons())
                : 0;
        double matched = sub_card * crossing->selectivity *
                         static_cast<double>(inner_stats.num_rows);
        double step = cost_model.IndexNLJoinCost(
            sub_card, index_height(rest_table), matched, residual_leaves,
            out_card);
        double total = dp[sub].cost + step;
        if (consider(total)) {
          auto outer = dp[sub].node->Clone();
          size_t outer_slot = ReferenceFindSlot(ReferenceSchemaOf(*outer, db),
                                                sub_table, sub_column);
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
    ADD_FAILURE() << "reference failed to join all tables";
    return result;
  }
  std::unique_ptr<PhysicalNode> root = std::move(dp[full_mask].node);
  double total_cost = dp[full_mask].cost;
  double current_card = subset_card(full_mask);

  if (!query.aggregates.empty() || !query.group_by.empty()) {
    const ReferenceSchema schema = ReferenceSchemaOf(*root, db);
    std::vector<plan::AggregateExpr> aggs;
    for (const plan::AggregateSpec& agg : query.aggregates) {
      plan::AggregateExpr expr;
      expr.func = agg.func;
      if (!agg.table.empty()) {
        expr.input_slot = ReferenceFindSlot(
            schema, agg.table,
            *db.FindTable(agg.table)->schema().FindColumn(agg.column));
      }
      aggs.push_back(expr);
    }
    if (query.group_by.empty()) {
      total_cost += cost_model.AggregateCost(current_card, aggs.size(), 1.0);
      root = plan::MakeSimpleAggregate(std::move(root), std::move(aggs));
      root->est_cardinality = 1.0;
      root->est_cost = total_cost;
    } else {
      std::vector<size_t> group_slots;
      for (const plan::GroupBySpec& g : query.group_by) {
        group_slots.push_back(ReferenceFindSlot(
            schema, g.table,
            *db.FindTable(g.table)->schema().FindColumn(g.column)));
      }
      double groups = estimator.GroupCount(query.group_by, current_card);
      total_cost += cost_model.AggregateCost(current_card, aggs.size(), groups);
      root = plan::MakeHashAggregate(std::move(root), std::move(group_slots),
                                     std::move(aggs));
      root->est_cardinality = groups;
      root->est_cost = total_cost;
    }
  }
  result.plan = plan::PhysicalPlan(std::move(root));
  return result;
}

// First difference between two plan trees ("" if none) in the fields the
// planner sets.
std::string FirstPlanDifference(const plan::PhysicalNode& got,
                                const plan::PhysicalNode& want,
                                const std::string& path) {
  auto slots = [](const plan::PhysicalNode& node) {
    std::vector<int64_t> out(node.group_by_slots.begin(),
                             node.group_by_slots.end());
    for (const plan::AggregateExpr& agg : node.aggregates) {
      out.push_back(static_cast<int64_t>(agg.func));
      out.push_back(agg.input_slot.has_value()
                        ? static_cast<int64_t>(*agg.input_slot)
                        : -1);
    }
    return out;
  };
  if (got.type != want.type) return path + ": type";
  if (got.table_name != want.table_name) return path + ": table";
  if (got.left_key_slot != want.left_key_slot) return path + ": left key slot";
  if (got.right_key_slot != want.right_key_slot) {
    return path + ": right key slot";
  }
  if (got.index_column != want.index_column) return path + ": index column";
  if (got.est_cardinality != want.est_cardinality) {
    return path + ": est_cardinality";
  }
  if (got.est_cost != want.est_cost) return path + ": est_cost";
  if (slots(got) != slots(want)) return path + ": aggregation slots";
  if (got.children.size() != want.children.size()) return path + ": arity";
  for (size_t i = 0; i < got.children.size(); ++i) {
    std::string diff =
        FirstPlanDifference(*got.children[i], *want.children[i],
                            path + "/" + std::to_string(i));
    if (!diff.empty()) return diff;
  }
  return "";
}

TEST(PlannerTest, DescriptorDpMatchesCloneBasedDp) {
  // Seeded queries of up to 8 tables over random corpus databases and IMDB,
  // each planned under four planner configurations, must come out equal to
  // the clone-based reference with ==: fingerprint, every node's operator,
  // table, key slots, index column and estimates, and the join-candidate
  // counter deltas.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  obs::Counter* candidates = registry.GetCounter("optimizer.join_candidates");
  obs::Counter* pruned =
      registry.GetCounter("optimizer.join_candidates_pruned");

  std::vector<datagen::DatabaseEnv> envs =
      datagen::MakeTrainingCorpus(31, 6, 0.05);
  {
    // The corpus's schemas stop at 7 tables; a wider one reaches 8-way
    // joins.
    datagen::GeneratorConfig wide;
    wide.min_tables = 9;
    wide.max_tables = 10;
    wide.min_rows = 200;
    wide.max_rows = 4000;
    storage::Database db = datagen::GenerateRandomDatabase("wide", 37, wide);
    Rng index_rng(41);
    datagen::AddDefaultIndexes(&db, &index_rng, 0.35);
    envs.push_back(datagen::MakeEnv(std::move(db)));
  }
  envs.push_back(MakeEnv());
  workload::WorkloadConfig config = workload::TrainingWorkloadConfig();
  config.max_tables = 8;

  size_t queries = 0;
  size_t max_tables = 0;
  std::vector<size_t> op_counts(plan::kNumPhysicalOpTypes, 0);
  for (size_t e = 0; e < envs.size(); ++e) {
    const datagen::DatabaseEnv& env = envs[e];
    PlannerOptions no_index;
    no_index.enable_index_scan = false;
    no_index.enable_index_nl_join = false;
    PlannerOptions no_nlj;
    no_nlj.nlj_row_threshold = 0;
    PlannerOptions hypothetical;  // a seeded half of all columns
    Rng rng(1000 + e);
    for (const storage::Table& table : env.db->tables()) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        if (rng.UniformDouble() < 0.5) {
          hypothetical.hypothetical_indexes.push_back({table.name(), c});
        }
      }
    }
    const std::vector<PlannerOptions> configs = {PlannerOptions(), no_index,
                                                 no_nlj, hypothetical};
    workload::QueryGenerator generator(&env, config, 500 + e);
    for (int i = 0; i < 150; ++i) {
      const QuerySpec query = generator.Next();
      ++queries;
      max_tables = std::max(max_tables, query.tables.size());
      for (size_t c = 0; c < configs.size(); ++c) {
        const Planner planner(env.db.get(), &env.stats, CostParams(),
                              configs[c]);
        const int64_t candidates_before = candidates->value();
        const int64_t pruned_before = pruned->value();
        auto got = planner.Plan(query);
        ASSERT_TRUE(got.ok()) << query.ToSql(*env.db);
        const int64_t candidates_delta =
            candidates->value() - candidates_before;
        const int64_t pruned_delta = pruned->value() - pruned_before;
        ReferenceResult want = ReferencePlan(env, configs[c], query);
        ASSERT_NE(want.plan.root, nullptr);
        const std::string context = "db " + std::to_string(e) + " query " +
                                    std::to_string(i) + " config " +
                                    std::to_string(c) + ": " +
                                    query.ToSql(*env.db);
        ASSERT_EQ(FirstPlanDifference(*got->root, *want.plan.root, "root"), "")
            << context;
        ASSERT_EQ(plan::FingerprintPlan(*got), plan::FingerprintPlan(want.plan))
            << context;
        ASSERT_EQ(candidates_delta, want.join_candidates) << context;
        ASSERT_EQ(pruned_delta, want.join_candidates_pruned) << context;
        got->root->Visit([&](const plan::PhysicalNode& node) {
          ++op_counts[static_cast<size_t>(node.type)];
        });
      }
    }
  }
  registry.set_enabled(was_enabled);

  EXPECT_GE(queries, 1000u);
  EXPECT_EQ(max_tables, 8u);
  for (PhysicalOpType type :
       {PhysicalOpType::kIndexScan, PhysicalOpType::kHashJoin,
        PhysicalOpType::kNestedLoopJoin, PhysicalOpType::kIndexNLJoin}) {
    EXPECT_GT(op_counts[static_cast<size_t>(type)], 0u)
        << plan::PhysicalOpName(type);
  }
}

}  // namespace
}  // namespace zerodb::optimizer
