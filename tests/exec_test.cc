#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "common/rng.h"
#include "datagen/corpus.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "plan/physical.h"
#include "storage/database.h"
#include "workload/benchmarks.h"

namespace zerodb::exec {
namespace {

using catalog::ColumnSchema;
using catalog::DataType;
using catalog::TableSchema;
using plan::AggFunc;
using plan::AggregateExpr;
using plan::CompareOp;
using plan::PhysicalNode;
using plan::PhysicalOpType;
using plan::PhysicalPlan;
using plan::Predicate;

// Database:
//   users(id, age):            5 rows, ages {30, 40, 25, 30, 55}
//   orders(id, user_id, amt):  8 rows, user_id = i % 5
storage::Database MakeDb() {
  storage::Database db("exec_test");
  storage::Table users(
      TableSchema("users", {ColumnSchema{"id", DataType::kInt64, 8},
                            ColumnSchema{"age", DataType::kInt64, 8}}));
  const int64_t ages[] = {30, 40, 25, 30, 55};
  for (int i = 0; i < 5; ++i) {
    users.column(0).AppendInt64(i);
    users.column(1).AppendInt64(ages[i]);
  }
  storage::Table orders(
      TableSchema("orders", {ColumnSchema{"id", DataType::kInt64, 8},
                             ColumnSchema{"user_id", DataType::kInt64, 8},
                             ColumnSchema{"amt", DataType::kDouble, 8}}));
  for (int i = 0; i < 8; ++i) {
    orders.column(0).AppendInt64(i);
    orders.column(1).AppendInt64(i % 5);
    orders.column(2).AppendDouble(10.0 * i);
  }
  EXPECT_TRUE(db.AddTable(std::move(users)).ok());
  EXPECT_TRUE(db.AddTable(std::move(orders)).ok());
  return db;
}

TEST(ExecutorTest, SeqScanAllRows) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  PhysicalPlan plan(plan::MakeSeqScan("users", std::nullopt));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 5u);
  EXPECT_EQ(result->output.num_columns(), 2u);
  const OperatorStats& stats = result->StatsFor(*plan.root);
  EXPECT_EQ(stats.rows_scanned, 5);
  EXPECT_EQ(stats.output_rows, 5);
  EXPECT_EQ(plan.root->true_cardinality, 5.0);
}

TEST(ExecutorTest, SeqScanWithPredicate) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  PhysicalPlan plan(
      plan::MakeSeqScan("users", Predicate::Compare(1, CompareOp::kEq, 30)));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 2u);
  EXPECT_EQ(result->StatsFor(*plan.root).predicate_evals, 5);
}

TEST(ExecutorTest, SeqScanComplexPredicate) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  // age >= 30 AND age < 50  -> ages 30, 40, 30
  PhysicalPlan plan(plan::MakeSeqScan(
      "users", Predicate::And({Predicate::Compare(1, CompareOp::kGe, 30),
                               Predicate::Compare(1, CompareOp::kLt, 50)})));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 3u);
}

TEST(ExecutorTest, IndexScanRange) {
  storage::Database db = MakeDb();
  ASSERT_TRUE(db.CreateIndex("users", "age").ok());
  Executor executor(&db);
  PhysicalPlan plan(
      plan::MakeIndexScan("users", 1, 30.0, 45.0, std::nullopt));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 3u);  // 30, 30, 40
  const OperatorStats& stats = result->StatsFor(*plan.root);
  EXPECT_EQ(stats.index_entries, 3);
  EXPECT_GT(stats.pages_read, 0);
}

TEST(ExecutorTest, IndexScanWithResidual) {
  storage::Database db = MakeDb();
  ASSERT_TRUE(db.CreateIndex("users", "age").ok());
  Executor executor(&db);
  // range picks ages >= 30; residual also requires id <= 1.
  PhysicalPlan plan(plan::MakeIndexScan(
      "users", 1, 30.0, std::nullopt,
      Predicate::Compare(0, CompareOp::kLe, 1)));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 2u);  // rows 0 (30) and 1 (40)
}

TEST(ExecutorTest, IndexScanMissingIndexFails) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  PhysicalPlan plan(
      plan::MakeIndexScan("users", 1, 30.0, 45.0, std::nullopt));
  EXPECT_FALSE(executor.Execute(&plan).ok());
}

TEST(ExecutorTest, FilterOverChild) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  auto scan = plan::MakeSeqScan("orders", std::nullopt);
  PhysicalPlan plan(plan::MakeFilter(
      std::move(scan), Predicate::Compare(2, CompareOp::kGe, 40.0)));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 4u);  // amt 40, 50, 60, 70
}

TEST(ExecutorTest, HashJoinMatchesNestedLoop) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  PhysicalPlan hash_plan(plan::MakeHashJoin(
      plan::MakeSeqScan("users", std::nullopt),
      plan::MakeSeqScan("orders", std::nullopt), 0, 1));
  PhysicalPlan nl_plan(plan::MakeNestedLoopJoin(
      plan::MakeSeqScan("users", std::nullopt),
      plan::MakeSeqScan("orders", std::nullopt), 0, 1));
  auto hash_result = executor.Execute(&hash_plan);
  auto nl_result = executor.Execute(&nl_plan);
  ASSERT_TRUE(hash_result.ok());
  ASSERT_TRUE(nl_result.ok());
  // Every order matches exactly one user: 8 output rows.
  EXPECT_EQ(hash_result->output.num_rows(), 8u);
  EXPECT_EQ(nl_result->output.num_rows(), 8u);
  EXPECT_EQ(hash_result->output.num_columns(), 5u);
  const OperatorStats& stats = hash_result->StatsFor(*hash_plan.root);
  EXPECT_EQ(stats.hash_build_rows, 5);
  EXPECT_EQ(stats.hash_probe_rows, 8);
}

TEST(ExecutorTest, HashJoinSelectiveBuild) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  // Only users with age == 30 (ids 0 and 3) join with orders.
  PhysicalPlan plan(plan::MakeHashJoin(
      plan::MakeSeqScan("users", Predicate::Compare(1, CompareOp::kEq, 30)),
      plan::MakeSeqScan("orders", std::nullopt), 0, 1));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  // user 0 -> orders 0, 5; user 3 -> orders 3. Total 3.
  EXPECT_EQ(result->output.num_rows(), 3u);
}

TEST(ExecutorTest, IndexNLJoin) {
  storage::Database db = MakeDb();
  ASSERT_TRUE(db.CreateIndex("orders", "user_id").ok());
  Executor executor(&db);
  PhysicalPlan plan(plan::MakeIndexNLJoin(
      plan::MakeSeqScan("users", Predicate::Compare(1, CompareOp::kEq, 30)),
      "orders", 0, 1, std::nullopt));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 3u);
  const OperatorStats& stats = result->StatsFor(*plan.root);
  EXPECT_EQ(stats.index_probes, 2);   // two outer rows
  EXPECT_EQ(stats.index_entries, 3);  // three matches
}

TEST(ExecutorTest, IndexNLJoinWithResidual) {
  storage::Database db = MakeDb();
  ASSERT_TRUE(db.CreateIndex("orders", "user_id").ok());
  Executor executor(&db);
  PhysicalPlan plan(plan::MakeIndexNLJoin(
      plan::MakeSeqScan("users", Predicate::Compare(1, CompareOp::kEq, 30)),
      "orders", 0, 1, Predicate::Compare(2, CompareOp::kGe, 30.0)));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  // Matches were orders 0 (amt 0), 5 (amt 50), 3 (amt 30); residual keeps 2.
  EXPECT_EQ(result->output.num_rows(), 2u);
}

TEST(ExecutorTest, SortOrdersRows) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  auto scan = plan::MakeSeqScan("users", std::nullopt);
  PhysicalPlan plan(plan::MakeSort(std::move(scan), {1}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  const auto& ages = result->output.columns[1];
  for (size_t i = 1; i < ages.size(); ++i) EXPECT_LE(ages[i - 1], ages[i]);
  EXPECT_EQ(result->StatsFor(*plan.root).sort_rows, 5);
}

TEST(ExecutorTest, SimpleAggregateAllFunctions) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  auto scan = plan::MakeSeqScan("users", std::nullopt);
  PhysicalPlan plan(plan::MakeSimpleAggregate(
      std::move(scan),
      {AggregateExpr{AggFunc::kCount, std::nullopt},
       AggregateExpr{AggFunc::kSum, 1}, AggregateExpr{AggFunc::kAvg, 1},
       AggregateExpr{AggFunc::kMin, 1}, AggregateExpr{AggFunc::kMax, 1}}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->output.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result->output.columns[0][0], 5.0);    // count
  EXPECT_DOUBLE_EQ(result->output.columns[1][0], 180.0);  // sum
  EXPECT_DOUBLE_EQ(result->output.columns[2][0], 36.0);   // avg
  EXPECT_DOUBLE_EQ(result->output.columns[3][0], 25.0);   // min
  EXPECT_DOUBLE_EQ(result->output.columns[4][0], 55.0);   // max
}

TEST(ExecutorTest, SimpleAggregateEmptyInput) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  auto scan = plan::MakeSeqScan(
      "users", Predicate::Compare(1, CompareOp::kGt, 1000));
  PhysicalPlan plan(plan::MakeSimpleAggregate(
      std::move(scan), {AggregateExpr{AggFunc::kCount, std::nullopt},
                        AggregateExpr{AggFunc::kMin, 1}}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->output.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result->output.columns[0][0], 0.0);
  EXPECT_DOUBLE_EQ(result->output.columns[1][0], 0.0);  // min of empty -> 0
}

TEST(ExecutorTest, HashAggregateGroups) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  auto scan = plan::MakeSeqScan("users", std::nullopt);
  PhysicalPlan plan(plan::MakeHashAggregate(
      std::move(scan), {1},  // group by age
      {AggregateExpr{AggFunc::kCount, std::nullopt}}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 4u);  // ages 25, 30, 40, 55
  EXPECT_EQ(result->StatsFor(*plan.root).group_count, 4);
  // The group with age 30 must have count 2.
  bool found = false;
  for (size_t i = 0; i < result->output.num_rows(); ++i) {
    if (result->output.columns[0][i] == 30.0) {
      EXPECT_DOUBLE_EQ(result->output.columns[1][i], 2.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExecutorTest, RowCapRejectsHugeOutputs) {
  storage::Database db = MakeDb();
  ExecutorOptions options;
  options.max_intermediate_rows = 4;
  Executor executor(&db, options);
  PhysicalPlan plan(plan::MakeSeqScan("orders", std::nullopt));
  auto result = executor.Execute(&plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(ExecutorTest, JoinOverAggregatePipeline) {
  // users -> filter -> join orders -> aggregate: a full pipeline.
  storage::Database db = MakeDb();
  Executor executor(&db);
  auto join = plan::MakeHashJoin(
      plan::MakeSeqScan("users", Predicate::Compare(1, CompareOp::kGe, 30)),
      plan::MakeSeqScan("orders", std::nullopt), 0, 1);
  PhysicalPlan plan(plan::MakeSimpleAggregate(
      std::move(join), {AggregateExpr{AggFunc::kCount, std::nullopt},
                        AggregateExpr{AggFunc::kSum, 4}}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->output.num_rows(), 1u);
  // users >= 30: ids 0,1,3,4. orders by user: 0->{0,5}, 1->{1,6}, 3->{3}, 4->{4}.
  EXPECT_DOUBLE_EQ(result->output.columns[0][0], 6.0);
  // sum of amts: 0+50+10+60+30+40 = 190.
  EXPECT_DOUBLE_EQ(result->output.columns[1][0], 190.0);
  // All three nodes have stats and true cardinalities.
  EXPECT_EQ(result->stats.size(), 4u);
  EXPECT_EQ(plan.root->true_cardinality, 1.0);
}

TEST(ExecutorTest, SortByMultipleKeys) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  // Sort orders by (user_id, amt): ties on user_id broken by amt.
  auto scan = plan::MakeSeqScan("orders", std::nullopt);
  PhysicalPlan plan(plan::MakeSort(std::move(scan), {1, 2}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  const auto& user_ids = result->output.columns[1];
  const auto& amts = result->output.columns[2];
  for (size_t i = 1; i < user_ids.size(); ++i) {
    ASSERT_TRUE(user_ids[i - 1] < user_ids[i] ||
                (user_ids[i - 1] == user_ids[i] && amts[i - 1] <= amts[i]));
  }
}

TEST(ExecutorTest, HashAggregateOverEmptyInput) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  auto scan = plan::MakeSeqScan(
      "users", Predicate::Compare(1, CompareOp::kGt, 1000));
  PhysicalPlan plan(plan::MakeHashAggregate(
      std::move(scan), {1}, {AggregateExpr{AggFunc::kCount, std::nullopt}}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 0u);  // no groups from no rows
  EXPECT_EQ(result->StatsFor(*plan.root).group_count, 0);
}

TEST(ExecutorTest, FilterOverJoinOutputSlots) {
  // A Filter above a join addresses the concatenated output schema: slot 4
  // is orders.amt (users has 2 columns, orders starts at slot 2).
  storage::Database db = MakeDb();
  Executor executor(&db);
  auto join = plan::MakeHashJoin(plan::MakeSeqScan("users", std::nullopt),
                                 plan::MakeSeqScan("orders", std::nullopt),
                                 0, 1);
  PhysicalPlan plan(plan::MakeFilter(
      std::move(join), Predicate::Compare(4, CompareOp::kGe, 50.0)));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.num_rows(), 3u);  // amts 50, 60, 70
  for (size_t r = 0; r < result->output.num_rows(); ++r) {
    EXPECT_GE(result->output.columns[4][r], 50.0);
  }
}

TEST(ExecutorTest, GroupByOverJoin) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  // COUNT orders per age bracket: join then group by users.age (slot 1).
  auto join = plan::MakeHashJoin(plan::MakeSeqScan("users", std::nullopt),
                                 plan::MakeSeqScan("orders", std::nullopt),
                                 0, 1);
  PhysicalPlan plan(plan::MakeHashAggregate(
      std::move(join), {1}, {AggregateExpr{AggFunc::kCount, std::nullopt}}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  // Ages with orders: 30 (users 0,3 -> orders 0,5,3), 40 (1 -> 1,6),
  // 25 (2 -> 2,7), 55 (4 -> 4). Four groups, counts 3,2,2,1.
  EXPECT_EQ(result->output.num_rows(), 4u);
  double total = 0;
  for (size_t r = 0; r < 4; ++r) total += result->output.columns[1][r];
  EXPECT_DOUBLE_EQ(total, 8.0);
}

TEST(ExecutorTest, NestedLoopRespectsRowCapMidLoop) {
  storage::Database db = MakeDb();
  ExecutorOptions options;
  options.max_intermediate_rows = 3;
  Executor executor(&db, options);
  PhysicalPlan plan(plan::MakeNestedLoopJoin(
      plan::MakeSeqScan("users", std::nullopt),
      plan::MakeSeqScan("orders", std::nullopt), 0, 1));
  auto result = executor.Execute(&plan);
  // 5 and 8 rows are both over the cap already at the scans.
  EXPECT_FALSE(result.ok());
}

TEST(ExecutorTest, StatsForUnknownNodeAborts) {
  storage::Database db = MakeDb();
  Executor executor(&db);
  PhysicalPlan plan(plan::MakeSeqScan("users", std::nullopt));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  auto orphan = plan::MakeSeqScan("orders", std::nullopt);
  EXPECT_DEATH(result->StatsFor(*orphan), "no stats recorded");
}

// ---------------------------------------------------------------------------
// Needed-slot pruning against the unpruned path. Every operator but an
// aggregate passes all of its input columns through, so only an aggregate
// reads fewer columns than its input carries. The reference runs each
// aggregate's child subtree as a plan of its own: its root needs every
// column, which is the full gather. A test-local aggregate then runs over
// that output.

bool IsAggregate(const PhysicalNode& node) {
  return node.type == PhysicalOpType::kHashAggregate ||
         node.type == PhysicalOpType::kSimpleAggregate;
}

std::vector<const PhysicalNode*> PreOrder(const PhysicalNode& root) {
  std::vector<const PhysicalNode*> nodes;
  root.Visit([&](const PhysicalNode& node) { nodes.push_back(&node); });
  return nodes;
}

// The executor's aggregate semantics over a complete input: groups emitted
// in ascending key order, empty MIN/MAX/AVG finalize to 0.
RowBatch LocalAggregate(const PhysicalNode& node, const RowBatch& input,
                        const storage::Database& db, OperatorStats* stats) {
  struct State {
    int64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  std::map<std::vector<double>, std::vector<State>> groups;
  if (node.type == PhysicalOpType::kSimpleAggregate) {
    groups[{}].resize(node.aggregates.size());
  }
  for (size_t row = 0; row < input.num_rows(); ++row) {
    std::vector<double> key;
    for (size_t slot : node.group_by_slots) {
      key.push_back(input.columns[slot][row]);
    }
    std::vector<State>& states = groups[key];
    states.resize(node.aggregates.size());
    for (size_t a = 0; a < node.aggregates.size(); ++a) {
      State& state = states[a];
      ++state.count;
      if (!node.aggregates[a].input_slot.has_value()) continue;
      const double v = input.columns[*node.aggregates[a].input_slot][row];
      state.sum += v;
      state.min = std::min(state.min, v);
      state.max = std::max(state.max, v);
    }
  }
  auto slots = plan::DeriveOutputSlots(node, db);
  EXPECT_TRUE(slots.ok()) << slots.status().ToString();
  RowBatch out;
  out.columns.resize(slots->NumSlots(node));
  out.rows = groups.size();
  for (const auto& [key, states] : groups) {
    for (size_t g = 0; g < key.size(); ++g) out.columns[g].push_back(key[g]);
    for (size_t a = 0; a < states.size(); ++a) {
      const State& state = states[a];
      double value = 0.0;
      switch (node.aggregates[a].func) {
        case AggFunc::kCount:
          value = static_cast<double>(state.count);
          break;
        case AggFunc::kSum:
          value = state.sum;
          break;
        case AggFunc::kAvg:
          value = state.count > 0
                      ? state.sum / static_cast<double>(state.count)
                      : 0.0;
          break;
        case AggFunc::kMin:
          value = state.count > 0 ? state.min : 0.0;
          break;
        case AggFunc::kMax:
          value = state.count > 0 ? state.max : 0.0;
          break;
      }
      out.columns[key.size() + a].push_back(value);
    }
  }
  *stats = OperatorStats();
  stats->input_rows_left = static_cast<int64_t>(input.num_rows());
  stats->group_count = static_cast<int64_t>(groups.size());
  stats->output_rows = static_cast<int64_t>(out.rows);
  stats->output_bytes = stats->output_rows * slots->WidthBytes(node);
  return out;
}

// Appends the pre-order stats of `node`'s subtree, executed with a complete
// root and no aggregate pruning its input, and returns the subtree's output.
RowBatch RunUnpruned(const PhysicalNode& node, const storage::Database& db,
                     std::vector<OperatorStats>* stats) {
  if (IsAggregate(node)) {
    const size_t at = stats->size();
    stats->emplace_back();
    RowBatch input = RunUnpruned(*node.children[0], db, stats);
    return LocalAggregate(node, input, db, &(*stats)[at]);
  }
  PhysicalPlan subtree(node.Clone());
  auto result = Executor(&db).Execute(&subtree);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return RowBatch();
  const std::vector<const PhysicalNode*> original = PreOrder(node);
  const std::vector<const PhysicalNode*> cloned = PreOrder(*subtree.root);
  for (size_t i = 0; i < original.size(); ++i) {
    if (!IsAggregate(*original[i])) {
      stats->push_back(result->StatsFor(*cloned[i]));
      continue;
    }
    const size_t before = stats->size();
    RunUnpruned(*original[i], db, stats);
    i += stats->size() - before - 1;  // skip the aggregate's subtree
  }
  return std::move(result->output);
}

void ExpectSameBatch(const RowBatch& actual, const RowBatch& expected) {
  EXPECT_EQ(actual.num_rows(), expected.num_rows());
  EXPECT_EQ(actual.columns, expected.columns);
}

// Executes `plan` and checks it against the unpruned reference: every
// node's OperatorStats and the root output compare equal, and the root
// output has every column materialized. Returns false if the plan hit an
// execution error (the row cap), which the reference cannot mirror.
bool ExpectMatchesUnpruned(const PhysicalPlan& plan,
                           const storage::Database& db) {
  PhysicalPlan pruned = plan.Clone();
  auto result = Executor(&db).Execute(&pruned);
  if (!result.ok()) return false;
  SCOPED_TRACE(plan.root->ToString(db));
  std::vector<OperatorStats> expected;
  const RowBatch expected_output = RunUnpruned(*plan.root, db, &expected);
  const std::vector<const PhysicalNode*> nodes = PreOrder(*pruned.root);
  EXPECT_EQ(nodes.size(), expected.size());
  for (size_t i = 0; i < std::min(nodes.size(), expected.size()); ++i) {
    EXPECT_TRUE(result->StatsFor(*nodes[i]) == expected[i])
        << "node " << i << " (" << plan::PhysicalOpName(nodes[i]->type)
        << ")";
  }
  ExpectSameBatch(result->output, expected_output);
  for (const std::vector<double>& column : result->output.columns) {
    EXPECT_EQ(column.size(), result->output.num_rows());
  }
  return true;
}

TEST(NeededSlotsTest, RootWithoutAggregateIsComplete) {
  storage::Database db = MakeDb();
  ASSERT_TRUE(db.CreateIndex("orders", "user_id").ok());
  Executor executor(&db);
  PhysicalPlan plan(plan::MakeSort(
      plan::MakeFilter(
          plan::MakeIndexNLJoin(
              plan::MakeHashJoin(plan::MakeSeqScan("users", std::nullopt),
                                 plan::MakeSeqScan("orders", std::nullopt), 0,
                                 1),
              "orders", 0, 1, std::nullopt),
          Predicate::Compare(4, CompareOp::kGe, 10.0)),
      {7}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->output.num_columns(), 8u);
  ASSERT_GT(result->output.num_rows(), 0u);
  for (const std::vector<double>& column : result->output.columns) {
    EXPECT_EQ(column.size(), result->output.num_rows());
  }
}

TEST(NeededSlotsTest, HandBuiltAggregatePlansMatchUnpruned) {
  storage::Database db = MakeDb();
  ASSERT_TRUE(db.CreateIndex("orders", "user_id").ok());
  // payments(user_id, value): ±1e16 next to small values, so a
  // floating-point SUM over them depends on row order and catches rows
  // gathered out of order under an aggregate.
  storage::Table payments(TableSchema(
      "payments", {ColumnSchema{"user_id", DataType::kInt64, 8},
                   ColumnSchema{"value", DataType::kDouble, 8}}));
  for (int i = 0; i < 12; ++i) {
    payments.column(0).AppendInt64(i % 5);
    payments.column(1).AppendDouble(
        i % 4 == 0 ? 1e16 : (i % 4 == 2 ? -1e16 : 0.5 + i));
  }
  ASSERT_TRUE(db.AddTable(std::move(payments)).ok());
  auto users_join_orders = [] {
    return plan::MakeHashJoin(
        plan::MakeSeqScan("users", Predicate::Compare(1, CompareOp::kGe, 30)),
        plan::MakeSeqScan("orders", std::nullopt), 0, 1);
  };
  std::vector<PhysicalPlan> plans;
  // The JoinOverAggregatePipeline shape: COUNT(*), SUM(orders.amt).
  plans.emplace_back(plan::MakeSimpleAggregate(
      users_join_orders(), {AggregateExpr{AggFunc::kCount, std::nullopt},
                            AggregateExpr{AggFunc::kSum, 4}}));
  // The GroupByOverJoin shape, with every aggregate function.
  plans.emplace_back(plan::MakeHashAggregate(
      plan::MakeHashJoin(plan::MakeSeqScan("users", std::nullopt),
                         plan::MakeSeqScan("orders", std::nullopt), 0, 1),
      {1}, {AggregateExpr{AggFunc::kCount, std::nullopt},
            AggregateExpr{AggFunc::kAvg, 4}, AggregateExpr{AggFunc::kMin, 2},
            AggregateExpr{AggFunc::kMax, 4}}));
  // Every pass-through operator between the aggregate and the scans.
  plans.emplace_back(plan::MakeHashAggregate(
      plan::MakeSort(
          plan::MakeFilter(
              plan::MakeIndexNLJoin(
                  plan::MakeNestedLoopJoin(
                      plan::MakeSeqScan("users", std::nullopt),
                      plan::MakeSeqScan(
                          "orders", Predicate::Compare(2, CompareOp::kLt, 60)),
                      0, 1),
                  "orders", 0, 1, Predicate::Compare(2, CompareOp::kGe, 10)),
              Predicate::Compare(7, CompareOp::kGt, 0.0)),
          {4}),
      {3, 6}, {AggregateExpr{AggFunc::kSum, 7}}));
  // An aggregate below a join, and one above it.
  plans.emplace_back(plan::MakeSimpleAggregate(
      plan::MakeHashJoin(
          plan::MakeHashAggregate(users_join_orders(), {0},
                                  {AggregateExpr{AggFunc::kSum, 4}}),
          plan::MakeSeqScan("users", std::nullopt), 0, 0),
      {AggregateExpr{AggFunc::kMax, 1}, AggregateExpr{AggFunc::kSum, 3}}));
  // An order-sensitive SUM over a Sort and a join.
  plans.emplace_back(plan::MakeSimpleAggregate(
      plan::MakeSort(plan::MakeHashJoin(
                         plan::MakeSeqScan("users", std::nullopt),
                         plan::MakeSeqScan("payments", std::nullopt), 0, 0),
                     {1}),
      {AggregateExpr{AggFunc::kSum, 3}, AggregateExpr{AggFunc::kAvg, 3}}));
  // An aggregate below a join at the root.
  plans.emplace_back(plan::MakeNestedLoopJoin(
      plan::MakeSeqScan("users", std::nullopt),
      plan::MakeHashAggregate(users_join_orders(), {2},
                              {AggregateExpr{AggFunc::kCount, std::nullopt}}),
      0, 0));
  for (const PhysicalPlan& plan : plans) {
    EXPECT_TRUE(ExpectMatchesUnpruned(plan, db));
  }
}

// The 60 seed-workload plans of ExecutorTraceTest.SeedWorkloadEventsMatchStats.
TEST(NeededSlotsTest, SeedWorkloadPlansMatchUnpruned) {
  datagen::DatabaseEnv env = datagen::MakeImdbEnv(17, 0.05);
  optimizer::Planner planner(env.db.get(), &env.stats);
  size_t executed = 0;
  for (workload::BenchmarkWorkload benchmark :
       {workload::BenchmarkWorkload::kScale,
        workload::BenchmarkWorkload::kSynthetic,
        workload::BenchmarkWorkload::kJobLight}) {
    for (const plan::QuerySpec& query :
         workload::MakeBenchmark(benchmark, env, /*count=*/20, /*seed=*/23)) {
      auto plan = planner.Plan(query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      if (ExpectMatchesUnpruned(*plan, *env.db)) ++executed;
    }
  }
  EXPECT_EQ(executed, 60u);
}

// The generated queries of PlannerProperty, under every planner
// configuration it compares (so index scans, index and nested-loop joins
// all appear).
class NeededSlotsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NeededSlotsProperty, GeneratedPlansMatchUnpruned) {
  datagen::GeneratorConfig gen_config;
  gen_config.min_rows = 200;
  gen_config.max_rows = 2000;
  storage::Database db =
      datagen::GenerateRandomDatabase("prop", GetParam(), gen_config);
  Rng index_rng(GetParam() ^ 1);
  datagen::AddDefaultIndexes(&db, &index_rng, 0.5);
  datagen::DatabaseEnv env = datagen::MakeEnv(std::move(db));
  workload::QueryGenerator generator(&env, workload::TrainingWorkloadConfig(),
                                     GetParam() ^ 2);
  optimizer::PlannerOptions no_index;
  no_index.enable_index_scan = false;
  no_index.enable_index_nl_join = false;
  optimizer::PlannerOptions no_nlj;
  no_nlj.nlj_row_threshold = 0;
  int executed = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const plan::QuerySpec query = generator.Next();
    for (const optimizer::PlannerOptions& options :
         {optimizer::PlannerOptions(), no_index, no_nlj}) {
      optimizer::Planner planner(env.db.get(), &env.stats,
                                 optimizer::CostParams(), options);
      auto plan = planner.Plan(query);
      ASSERT_TRUE(plan.ok()) << query.ToSql(*env.db);
      if (ExpectMatchesUnpruned(*plan, *env.db)) ++executed;
    }
  }
  EXPECT_GE(executed, 15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeededSlotsProperty,
                         ::testing::Values(7, 8, 9, 10));

}  // namespace
}  // namespace zerodb::exec
