#include "plan/validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "datagen/corpus.h"
#include "exec/executor.h"
#include "nn/layers.h"
#include "nn/validate.h"
#include "optimizer/optimizer.h"
#include "plan/physical.h"
#include "storage/database.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace zerodb {
namespace {

using catalog::ColumnSchema;
using catalog::DataType;
using catalog::TableSchema;
using plan::AggFunc;
using plan::AggregateExpr;
using plan::CompareOp;
using plan::PhysicalPlan;
using plan::Predicate;
using plan::ValidatePlan;
using plan::ValidatePredicate;

// Database:
//   users(id, age, city):      3 rows, city is dictionary-encoded
//   orders(id, user_id, amt):  4 rows
storage::Database MakeDb() {
  storage::Database db("validate_test");
  storage::Table users(
      TableSchema("users", {ColumnSchema{"id", DataType::kInt64, 8},
                            ColumnSchema{"age", DataType::kInt64, 8},
                            ColumnSchema{"city", DataType::kString, 10}}));
  const char* cities[] = {"tokyo", "lima", "oslo"};
  for (int i = 0; i < 3; ++i) {
    users.column(0).AppendInt64(i);
    users.column(1).AppendInt64(25 + 10 * i);
    users.column(2).AppendString(cities[i]);
  }
  storage::Table orders(
      TableSchema("orders", {ColumnSchema{"id", DataType::kInt64, 8},
                             ColumnSchema{"user_id", DataType::kInt64, 8},
                             ColumnSchema{"amt", DataType::kDouble, 8}}));
  for (int i = 0; i < 4; ++i) {
    orders.column(0).AppendInt64(i);
    orders.column(1).AppendInt64(i % 3);
    orders.column(2).AppendDouble(10.0 * i);
  }
  EXPECT_TRUE(db.AddTable(std::move(users)).ok());
  EXPECT_TRUE(db.AddTable(std::move(orders)).ok());
  return db;
}

// ---------------------------------------------------------------------------
// ValidatePlan as a Status-returning function.

TEST(PlanValidatorTest, AcceptsWellFormedPlans) {
  storage::Database db = MakeDb();
  PhysicalPlan scan(plan::MakeSeqScan(
      "users", Predicate::Compare(1, CompareOp::kGe, 30.0)));
  EXPECT_TRUE(ValidatePlan(scan, db).ok());

  PhysicalPlan join(plan::MakeHashJoin(
      plan::MakeSeqScan("users", std::nullopt),
      plan::MakeSeqScan("orders", std::nullopt), /*left_key_slot=*/0,
      /*right_key_slot=*/1));
  EXPECT_TRUE(ValidatePlan(join, db).ok());

  PhysicalPlan agg(plan::MakeSimpleAggregate(
      plan::MakeSeqScan("orders", std::nullopt),
      {AggregateExpr{AggFunc::kSum, 2}}));
  EXPECT_TRUE(ValidatePlan(agg, db).ok());
}

TEST(PlanValidatorTest, RejectsUnknownTable) {
  storage::Database db = MakeDb();
  PhysicalPlan plan(plan::MakeSeqScan("nonexistent", std::nullopt));
  Status status = ValidatePlan(plan, db);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown table"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsMissingRoot) {
  storage::Database db = MakeDb();
  PhysicalPlan plan;
  EXPECT_FALSE(ValidatePlan(plan, db).ok());
}

TEST(PlanValidatorTest, RejectsWrongChildCount) {
  storage::Database db = MakeDb();
  // A Filter node with no child.
  auto filter = std::make_unique<plan::PhysicalNode>();
  filter->type = plan::PhysicalOpType::kFilter;
  filter->predicate = Predicate::Compare(0, CompareOp::kEq, 1.0);
  Status status = ValidatePlan(*filter, db);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("child"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsPredicateSlotOutOfRange) {
  storage::Database db = MakeDb();
  // users has 3 columns; slot 7 does not exist.
  PhysicalPlan plan(plan::MakeSeqScan(
      "users", Predicate::Compare(7, CompareOp::kEq, 1.0)));
  Status status = ValidatePlan(plan, db);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsRangePredicateOnStringColumn) {
  storage::Database db = MakeDb();
  // city (slot 2) is dictionary-encoded: `city < 1.5` is type confusion.
  PhysicalPlan plan(plan::MakeSeqScan(
      "users", Predicate::Compare(2, CompareOp::kLt, 1.5)));
  Status status = ValidatePlan(plan, db);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("string"), std::string::npos);
  // Equality on the dictionary code is fine.
  PhysicalPlan eq(plan::MakeSeqScan(
      "users", Predicate::Compare(2, CompareOp::kEq, 1.0)));
  EXPECT_TRUE(ValidatePlan(eq, db).ok());
}

TEST(PlanValidatorTest, RejectsNaNLiteral) {
  storage::Database db = MakeDb();
  PhysicalPlan plan(plan::MakeSeqScan(
      "users", Predicate::Compare(
                   1, CompareOp::kEq,
                   std::numeric_limits<double>::quiet_NaN())));
  EXPECT_FALSE(ValidatePlan(plan, db).ok());
}

TEST(PlanValidatorTest, RejectsJoinKeySlotOutOfRange) {
  storage::Database db = MakeDb();
  PhysicalPlan plan(plan::MakeHashJoin(
      plan::MakeSeqScan("users", std::nullopt),
      plan::MakeSeqScan("orders", std::nullopt), /*left_key_slot=*/9,
      /*right_key_slot=*/1));
  Status status = ValidatePlan(plan, db);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("left key"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsStringAgainstNumericJoin) {
  storage::Database db = MakeDb();
  // users.city (string, slot 2) joined against orders.user_id (int, slot 1).
  PhysicalPlan plan(plan::MakeHashJoin(
      plan::MakeSeqScan("users", std::nullopt),
      plan::MakeSeqScan("orders", std::nullopt), /*left_key_slot=*/2,
      /*right_key_slot=*/1));
  Status status = ValidatePlan(plan, db);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("string"), std::string::npos);
}

TEST(PlanValidatorTest, RejectsMalformedAggregates) {
  storage::Database db = MakeDb();
  // SUM with no input slot.
  PhysicalPlan no_slot(plan::MakeSimpleAggregate(
      plan::MakeSeqScan("orders", std::nullopt),
      {AggregateExpr{AggFunc::kSum, std::nullopt}}));
  EXPECT_FALSE(ValidatePlan(no_slot, db).ok());
  // SUM over the dictionary codes of a string column.
  PhysicalPlan string_sum(plan::MakeSimpleAggregate(
      plan::MakeSeqScan("users", std::nullopt),
      {AggregateExpr{AggFunc::kSum, 2}}));
  EXPECT_FALSE(ValidatePlan(string_sum, db).ok());
  // HashAggregate without group-by slots.
  auto agg = plan::MakeHashAggregate(plan::MakeSeqScan("orders", std::nullopt),
                                     {}, {AggregateExpr{AggFunc::kCount, std::nullopt}});
  EXPECT_FALSE(ValidatePlan(*agg, db).ok());
}

TEST(PlanValidatorTest, RejectsSortWithoutKeys) {
  storage::Database db = MakeDb();
  auto sort = plan::MakeSort(plan::MakeSeqScan("orders", std::nullopt), {});
  EXPECT_FALSE(ValidatePlan(*sort, db).ok());
}

TEST(PlanValidatorTest, RejectsBrokenAnnotations) {
  storage::Database db = MakeDb();
  PhysicalPlan plan(plan::MakeSeqScan("users", std::nullopt));
  plan.root->est_cardinality = -3.0;
  EXPECT_FALSE(ValidatePlan(plan, db).ok());
  plan.root->est_cardinality = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ValidatePlan(plan, db).ok());
  plan.root->est_cardinality = 1.0;
  plan.root->true_cardinality = -2.0;  // only -1 means "unknown"
  EXPECT_FALSE(ValidatePlan(plan, db).ok());
}

TEST(PlanValidatorTest, RejectsInconsistentTrueCardinalities) {
  storage::Database db = MakeDb();
  // A Filter claiming to output more rows than its input produced.
  auto child = plan::MakeSeqScan("users", std::nullopt);
  child->true_cardinality = 3.0;
  auto filter = plan::MakeFilter(std::move(child),
                                 Predicate::Compare(1, CompareOp::kGe, 0.0));
  filter->true_cardinality = 10.0;
  EXPECT_FALSE(ValidatePlan(*filter, db).ok());
  // SimpleAggregate must emit exactly one row.
  auto agg = plan::MakeSimpleAggregate(plan::MakeSeqScan("users", std::nullopt),
                                       {AggregateExpr{AggFunc::kCount, std::nullopt}});
  agg->true_cardinality = 2.0;
  EXPECT_FALSE(ValidatePlan(*agg, db).ok());
}

// The structural checks DeriveOutputSlots owns, through ValidatePlan.

TEST(PlanValidatorTest, RejectsGroupBySlotOutOfRange) {
  storage::Database db = MakeDb();
  // orders has 3 columns; group-by slot 3 does not exist.
  auto agg = plan::MakeHashAggregate(
      plan::MakeSeqScan("orders", std::nullopt), {0, 3},
      {AggregateExpr{AggFunc::kCount, std::nullopt}});
  Status status = ValidatePlan(*agg, db);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "HashAggregate group-by slot 3 out of range (input schema has 3 "
            "slots)");
}

TEST(PlanValidatorTest, RejectsIndexNLJoinOnUnknownTable) {
  storage::Database db = MakeDb();
  auto inlj = plan::MakeIndexNLJoin(plan::MakeSeqScan("users", std::nullopt),
                                    "nonexistent", 0, 0, std::nullopt);
  Status status = ValidatePlan(*inlj, db);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "IndexNLJoin references unknown table 'nonexistent'");
}

// Malformed trees come back as a Status from the derivation itself, in
// every build (no CHECK, no out-of-bounds child access).
TEST(OutputSlotsStatusTest, HashJoinWithOneChild) {
  storage::Database db = MakeDb();
  auto join = plan::MakeHashJoin(plan::MakeSeqScan("users", std::nullopt),
                                 plan::MakeSeqScan("orders", std::nullopt), 0,
                                 1);
  join->children.pop_back();
  auto slots = plan::DeriveOutputSlots(*join, db);
  ASSERT_FALSE(slots.ok());
  EXPECT_EQ(slots.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(slots.status().message(),
            "HashJoin must have 2 child(ren), has 1");
  EXPECT_EQ(ValidatePlan(*join, db).message(), slots.status().message());
}

TEST(OutputSlotsStatusTest, NullChild) {
  storage::Database db = MakeDb();
  auto join = plan::MakeHashJoin(plan::MakeSeqScan("users", std::nullopt),
                                 plan::MakeSeqScan("orders", std::nullopt), 0,
                                 1);
  join->children[1].reset();
  auto slots = plan::DeriveOutputSlots(*join, db);
  ASSERT_FALSE(slots.ok());
  EXPECT_EQ(slots.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(slots.status().message(), "HashJoin has a null child");
  EXPECT_EQ(ValidatePlan(*join, db).message(), slots.status().message());
}

TEST(PredicateValidatorTest, ChecksTreeAgainstSlotTypes) {
  std::vector<DataType> types = {DataType::kInt64, DataType::kString};
  EXPECT_TRUE(ValidatePredicate(
                  Predicate::And({Predicate::Compare(0, CompareOp::kLt, 5.0),
                                  Predicate::Compare(1, CompareOp::kNe, 2.0)}),
                  types)
                  .ok());
  EXPECT_FALSE(
      ValidatePredicate(Predicate::Compare(1, CompareOp::kGt, 0.0), types)
          .ok());
  // (An empty AND/OR cannot be built: Predicate::And/Or CHECK non-empty at
  // construction; the validator's empty-children check is defense in depth.)
}

// ---------------------------------------------------------------------------
// Death tests: the ZDB_DCHECK_OK gates in the optimizer, executor, layers
// and trainer must actually fire in debug builds. (The default build keeps
// assertions on — NDEBUG is never defined — so these run under tier-1.)

#ifndef NDEBUG

using PlanValidatorDeathTest = ::testing::Test;

TEST(PlanValidatorDeathTest, ExecutorRefusesMalformedSchema) {
  storage::Database db = MakeDb();
  exec::Executor executor(&db);
  // Join key slot out of range: caught at the open path, before any
  // operator dereferences the bogus slot.
  PhysicalPlan plan(plan::MakeHashJoin(
      plan::MakeSeqScan("users", std::nullopt),
      plan::MakeSeqScan("orders", std::nullopt), /*left_key_slot=*/9,
      /*right_key_slot=*/1));
  EXPECT_DEATH(executor.Execute(&plan).ok(), "out of range");
}

TEST(PlanValidatorDeathTest, ExecutorRefusesTypeConfusedPredicate) {
  storage::Database db = MakeDb();
  exec::Executor executor(&db);
  PhysicalPlan plan(plan::MakeSeqScan(
      "users", Predicate::Compare(2, CompareOp::kLe, 1.0)));
  EXPECT_DEATH(executor.Execute(&plan).ok(), "string");
}

TEST(NnValidatorDeathTest, LinearRejectsMismatchedShape) {
  Rng rng(7);
  nn::MlpConfig config;  // no hidden layer: one Linear(4, 2)
  config.in_features = 4;
  config.out_features = 2;
  nn::ParameterBlock params;
  nn::Mlp layer(config, &rng, &params);
  nn::MlpTape tape;
  const std::vector<float> wrong(3, 0.0f);  // one row of 3, expects 4
  EXPECT_DEATH(layer.ForwardRows(params, wrong, 1, &tape), "feature columns");
}

TEST(NnValidatorDeathTest, MlpRejectsNaNInput) {
  Rng rng(7);
  nn::MlpConfig config;
  config.in_features = 2;
  config.hidden_sizes = {4};
  config.out_features = 1;
  nn::ParameterBlock params;
  nn::Mlp mlp(config, &rng, &params);
  nn::MlpTape tape;
  const std::vector<float> nan_input = {
      1.0f, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_DEATH(mlp.ForwardRows(params, nan_input, 1, &tape), "non-finite");
}

TEST(NnValidatorDeathTest, NaNGradientAborts) {
  const std::vector<float> grads = {0.5f,
                                    std::numeric_limits<float>::quiet_NaN()};
  EXPECT_DEATH(
      ZDB_CHECK_OK(nn::ValidateFiniteGradients(grads, "trainer backward")),
      "non-finite gradient");
}

#endif  // NDEBUG

// ---------------------------------------------------------------------------
// Pass-through: every plan the optimizer emits for the seed benchmark
// workloads validates cleanly, before and after execution.

TEST(PlanValidatorPassThroughTest, SeedWorkloadPlansValidate) {
  datagen::DatabaseEnv env = datagen::MakeImdbEnv(17, 0.05);
  optimizer::Planner planner(env.db.get(), &env.stats);
  exec::Executor executor(env.db.get());
  size_t validated = 0;
  for (workload::BenchmarkWorkload benchmark :
       {workload::BenchmarkWorkload::kScale,
        workload::BenchmarkWorkload::kSynthetic,
        workload::BenchmarkWorkload::kJobLight}) {
    for (const plan::QuerySpec& query :
         workload::MakeBenchmark(benchmark, env, /*count=*/20, /*seed=*/23)) {
      auto plan = planner.Plan(query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      Status valid = ValidatePlan(*plan, *env.db);
      EXPECT_TRUE(valid.ok())
          << valid.ToString() << "\n"
          << plan->root->ToString(*env.db);
      // Execution fills true cardinalities; the plan must still validate.
      auto result = executor.Execute(&*plan);
      if (result.ok()) {
        Status post = ValidatePlan(*plan, *env.db);
        EXPECT_TRUE(post.ok())
            << post.ToString() << "\n"
            << plan->root->ToString(*env.db);
      }
      ++validated;
    }
  }
  EXPECT_EQ(validated, 60u);
}

}  // namespace
}  // namespace zerodb
