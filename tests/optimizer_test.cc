#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "datagen/corpus.h"
#include "exec/executor.h"
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

TEST(FindSlotTest, LocatesColumns) {
  std::vector<plan::OutputColumn> schema = {
      {"a", 0, false}, {"a", 1, false}, {"b", 0, false}};
  EXPECT_EQ(FindSlot(schema, "a", 1), 1u);
  EXPECT_EQ(FindSlot(schema, "b", 0), 2u);
}

}  // namespace
}  // namespace zerodb::optimizer
