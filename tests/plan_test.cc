#include <gtest/gtest.h>

#include <unordered_map>

#include "catalog/schema.h"
#include "plan/expr.h"
#include "plan/fingerprint.h"
#include "plan/physical.h"
#include "plan/query.h"
#include "storage/database.h"

namespace zerodb::plan {
namespace {

using catalog::ColumnSchema;
using catalog::DataType;
using catalog::TableSchema;

storage::Database MakeDb() {
  storage::Database db("test");
  storage::Table a(TableSchema("a", {ColumnSchema{"id", DataType::kInt64, 8},
                                     ColumnSchema{"x", DataType::kInt64, 8}}));
  storage::Table b(TableSchema("b", {ColumnSchema{"id", DataType::kInt64, 8},
                                     ColumnSchema{"a_id", DataType::kInt64, 8},
                                     ColumnSchema{"y", DataType::kDouble, 8}}));
  for (int i = 0; i < 4; ++i) {
    a.column(0).AppendInt64(i);
    a.column(1).AppendInt64(i * 10);
  }
  for (int i = 0; i < 6; ++i) {
    b.column(0).AppendInt64(i);
    b.column(1).AppendInt64(i % 4);
    b.column(2).AppendDouble(i * 0.5);
  }
  EXPECT_TRUE(db.AddTable(std::move(a)).ok());
  EXPECT_TRUE(db.AddTable(std::move(b)).ok());
  EXPECT_TRUE(db.mutable_catalog()
                  .AddForeignKey(catalog::ForeignKey{"b", "a_id", "a", "id"})
                  .ok());
  return db;
}

TEST(PredicateTest, EvaluateLeaves) {
  EXPECT_TRUE(EvaluateCompare(5, CompareOp::kEq, 5));
  EXPECT_TRUE(EvaluateCompare(4, CompareOp::kNe, 5));
  EXPECT_TRUE(EvaluateCompare(4, CompareOp::kLt, 5));
  EXPECT_TRUE(EvaluateCompare(5, CompareOp::kLe, 5));
  EXPECT_TRUE(EvaluateCompare(6, CompareOp::kGt, 5));
  EXPECT_TRUE(EvaluateCompare(5, CompareOp::kGe, 5));
  EXPECT_FALSE(EvaluateCompare(5, CompareOp::kLt, 5));
}

TEST(PredicateTest, AndOrEvaluate) {
  // (x >= 10 AND x <= 20) OR y = 1
  Predicate p = Predicate::Or(
      {Predicate::And({Predicate::Compare(0, CompareOp::kGe, 10),
                       Predicate::Compare(0, CompareOp::kLe, 20)}),
       Predicate::Compare(1, CompareOp::kEq, 1)});
  EXPECT_TRUE(p.Evaluate({15, 0}));
  EXPECT_TRUE(p.Evaluate({99, 1}));
  EXPECT_FALSE(p.Evaluate({99, 0}));
  EXPECT_EQ(p.NumComparisons(), 3u);
  EXPECT_EQ(p.Depth(), 3u);
}

TEST(PredicateTest, SingleChildCollapses) {
  Predicate p = Predicate::And({Predicate::Compare(2, CompareOp::kEq, 7)});
  EXPECT_EQ(p.kind(), Predicate::Kind::kCompare);
  EXPECT_EQ(p.slot(), 2u);
}

TEST(PredicateTest, ReferencedSlotsDeduplicated) {
  Predicate p = Predicate::And({Predicate::Compare(3, CompareOp::kGe, 1),
                                Predicate::Compare(3, CompareOp::kLe, 9),
                                Predicate::Compare(1, CompareOp::kEq, 0)});
  auto slots = p.ReferencedSlots();
  EXPECT_EQ(slots.size(), 2u);
}

TEST(PredicateTest, RemapSlots) {
  Predicate p = Predicate::And({Predicate::Compare(0, CompareOp::kGe, 1),
                                Predicate::Compare(1, CompareOp::kLe, 9)});
  Predicate remapped = p.RemapSlots({5, 7});
  auto slots = remapped.ReferencedSlots();
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0], 5u);
  EXPECT_EQ(slots[1], 7u);
}

TEST(PredicateTest, ToStringReadable) {
  Predicate p = Predicate::And({Predicate::Compare(0, CompareOp::kGe, 30),
                                Predicate::Compare(1, CompareOp::kEq, 2)});
  EXPECT_EQ(p.ToString({"age", "kind"}), "(age >= 30 AND kind = 2)");
}

TEST(QuerySpecTest, ToSqlRendering) {
  storage::Database db = MakeDb();
  QuerySpec query;
  query.tables = {"a", "b"};
  query.joins = {JoinSpec{"b", "a_id", "a", "id"}};
  query.filters = {FilterSpec{"a", Predicate::Compare(1, CompareOp::kGt, 5)}};
  query.aggregates = {AggregateSpec{AggFunc::kCount, "", ""}};
  std::string sql = query.ToSql(db);
  EXPECT_NE(sql.find("SELECT COUNT(*)"), std::string::npos);
  EXPECT_NE(sql.find("FROM a, b"), std::string::npos);
  EXPECT_NE(sql.find("b.a_id = a.id"), std::string::npos);
  EXPECT_NE(sql.find("a.x > 5"), std::string::npos);
}

TEST(QuerySpecTest, ValidateCatchesErrors) {
  storage::Database db = MakeDb();
  QuerySpec query;
  EXPECT_FALSE(query.Validate(db).ok());  // no tables

  query.tables = {"ghost"};
  EXPECT_FALSE(query.Validate(db).ok());  // unknown table

  query.tables = {"a", "b"};
  EXPECT_FALSE(query.Validate(db).ok());  // disconnected (no join)

  query.joins = {JoinSpec{"b", "a_id", "a", "id"}};
  EXPECT_TRUE(query.Validate(db).ok());

  query.filters = {FilterSpec{"a", Predicate::Compare(9, CompareOp::kEq, 1)}};
  EXPECT_FALSE(query.Validate(db).ok());  // slot out of range
  query.filters.clear();

  query.aggregates = {AggregateSpec{AggFunc::kSum, "a", "nope"}};
  EXPECT_FALSE(query.Validate(db).ok());  // unknown aggregate column
}

TEST(QuerySpecTest, ValidateRejectsRepeatedTable) {
  // Rejected as a repeat, not as the disconnected join graph the
  // connectivity check would otherwise report.
  storage::Database db = MakeDb();
  QuerySpec query;
  query.tables = {"a", "b", "a"};
  query.joins = {JoinSpec{"b", "a_id", "a", "id"},
                 JoinSpec{"a", "x", "a", "id"}};
  Status status = query.Validate(db);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "table appears more than once in FROM: a");
}

TEST(PhysicalPlanTest, OutputSchemas) {
  storage::Database db = MakeDb();
  auto scan_a = MakeSeqScan("a", std::nullopt);
  EXPECT_EQ(scan_a->OutputSchema(db).size(), 2u);

  auto scan_b = MakeSeqScan("b", std::nullopt);
  auto join = MakeHashJoin(std::move(scan_a), std::move(scan_b), 0, 1);
  auto schema = join->OutputSchema(db);
  ASSERT_EQ(schema.size(), 5u);
  EXPECT_EQ(schema[0].table, "a");
  EXPECT_EQ(schema[2].table, "b");

  auto agg = MakeSimpleAggregate(std::move(join),
                                 {AggregateExpr{AggFunc::kCount, std::nullopt}});
  auto agg_schema = agg->OutputSchema(db);
  ASSERT_EQ(agg_schema.size(), 1u);
  EXPECT_TRUE(agg_schema[0].synthetic);
  EXPECT_EQ(agg->OutputWidthBytes(db), 8);
}

TEST(PhysicalPlanTest, IndexNLJoinSchema) {
  storage::Database db = MakeDb();
  auto scan_a = MakeSeqScan("a", std::nullopt);
  auto inlj = MakeIndexNLJoin(std::move(scan_a), "b", 0, 1, std::nullopt);
  auto schema = inlj->OutputSchema(db);
  ASSERT_EQ(schema.size(), 5u);
  EXPECT_EQ(schema[4].table, "b");
}

TEST(PhysicalPlanTest, SubtreeSizeHeightVisit) {
  storage::Database db = MakeDb();
  auto join = MakeHashJoin(MakeSeqScan("a", std::nullopt),
                           MakeSeqScan("b", std::nullopt), 0, 1);
  auto root = MakeSimpleAggregate(std::move(join),
                                  {AggregateExpr{AggFunc::kCount, std::nullopt}});
  EXPECT_EQ(root->SubtreeSize(), 4u);
  EXPECT_EQ(root->Height(), 3u);
  size_t visited = 0;
  root->Visit([&](const PhysicalNode&) { ++visited; });
  EXPECT_EQ(visited, 4u);
}

TEST(PhysicalPlanTest, CloneDeepCopies) {
  auto scan = MakeSeqScan("a", Predicate::Compare(1, CompareOp::kGt, 5));
  scan->est_cardinality = 42.0;
  scan->true_cardinality = 40.0;
  auto clone = scan->Clone();
  EXPECT_EQ(clone->est_cardinality, 42.0);
  EXPECT_EQ(clone->true_cardinality, 40.0);
  EXPECT_TRUE(clone->predicate.has_value());
  clone->est_cardinality = 1.0;
  EXPECT_EQ(scan->est_cardinality, 42.0);
}

TEST(PhysicalPlanTest, ToStringRendersTree) {
  storage::Database db = MakeDb();
  auto join = MakeHashJoin(MakeSeqScan("a", std::nullopt),
                           MakeSeqScan("b", std::nullopt), 0, 1);
  std::string rendered = join->ToString(db);
  EXPECT_NE(rendered.find("HashJoin"), std::string::npos);
  EXPECT_NE(rendered.find("SeqScan(a)"), std::string::npos);
  EXPECT_NE(rendered.find("SeqScan(b)"), std::string::npos);
}

TEST(PhysicalPlanTest, OpNamesComplete) {
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kSeqScan), "SeqScan");
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kIndexScan), "IndexScan");
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kFilter), "Filter");
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kHashJoin), "HashJoin");
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kNestedLoopJoin),
               "NestedLoopJoin");
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kIndexNLJoin), "IndexNLJoin");
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kSort), "Sort");
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kHashAggregate),
               "HashAggregate");
  EXPECT_STREQ(PhysicalOpName(PhysicalOpType::kSimpleAggregate),
               "SimpleAggregate");
}

std::unique_ptr<PhysicalNode> MakeJoinAggPlan() {
  auto join = MakeHashJoin(MakeSeqScan("a", Predicate::Compare(1, CompareOp::kGt, 5)),
                           MakeSeqScan("b", std::nullopt), 0, 1);
  join->est_cardinality = 12.0;
  join->est_cost = 48.0;
  return MakeSimpleAggregate(std::move(join),
                             {AggregateExpr{AggFunc::kCount, std::nullopt}});
}

TEST(FingerprintTest, DeterministicAndStableAcrossClone) {
  auto plan = MakeJoinAggPlan();
  const uint64_t fp = FingerprintPlan(*plan);
  EXPECT_EQ(fp, FingerprintPlan(*plan));
  auto clone = plan->Clone();
  EXPECT_EQ(fp, FingerprintPlan(*clone));
}

TEST(FingerprintTest, DiffersOnStructureChange) {
  auto plan = MakeJoinAggPlan();
  const uint64_t fp = FingerprintPlan(*plan);

  // Swap the join algorithm: same children, different operator kind.
  auto nl_join = MakeNestedLoopJoin(
      MakeSeqScan("a", Predicate::Compare(1, CompareOp::kGt, 5)),
      MakeSeqScan("b", std::nullopt), 0, 1);
  nl_join->est_cardinality = 12.0;
  nl_join->est_cost = 48.0;
  auto variant = MakeSimpleAggregate(
      std::move(nl_join), {AggregateExpr{AggFunc::kCount, std::nullopt}});
  EXPECT_NE(fp, FingerprintPlan(*variant));

  // Drop the aggregate on top: different tree shape.
  auto bare_join = MakeHashJoin(
      MakeSeqScan("a", Predicate::Compare(1, CompareOp::kGt, 5)),
      MakeSeqScan("b", std::nullopt), 0, 1);
  bare_join->est_cardinality = 12.0;
  bare_join->est_cost = 48.0;
  EXPECT_NE(fp, FingerprintPlan(*bare_join));
}

TEST(FingerprintTest, DiffersOnPredicateAndTableChange) {
  auto scan = MakeSeqScan("a", Predicate::Compare(1, CompareOp::kGt, 5));
  const uint64_t fp = FingerprintPlan(*scan);

  auto other_literal = MakeSeqScan("a", Predicate::Compare(1, CompareOp::kGt, 6));
  EXPECT_NE(fp, FingerprintPlan(*other_literal));

  auto other_op = MakeSeqScan("a", Predicate::Compare(1, CompareOp::kGe, 5));
  EXPECT_NE(fp, FingerprintPlan(*other_op));

  auto other_table = MakeSeqScan("b", Predicate::Compare(1, CompareOp::kGt, 5));
  EXPECT_NE(fp, FingerprintPlan(*other_table));

  auto no_predicate = MakeSeqScan("a", std::nullopt);
  EXPECT_NE(fp, FingerprintPlan(*no_predicate));
}

TEST(FingerprintTest, DiffersOnAnnotationChange) {
  auto plan = MakeJoinAggPlan();
  const uint64_t fp = FingerprintPlan(*plan);
  auto clone = plan->Clone();
  clone->children[0]->est_cardinality += 1.0;
  EXPECT_NE(fp, FingerprintPlan(*clone));

  auto clone2 = plan->Clone();
  clone2->children[0]->true_cardinality = 11.0;
  EXPECT_NE(fp, FingerprintPlan(*clone2));
}

TEST(FingerprintTest, NullPlanHashesToSentinel) {
  PhysicalPlan empty;
  PhysicalPlan also_empty;
  EXPECT_EQ(FingerprintPlan(empty), FingerprintPlan(also_empty));

  PhysicalPlan real;
  real.root = MakeSeqScan("a", std::nullopt);
  EXPECT_NE(FingerprintPlan(real), FingerprintPlan(empty));
  EXPECT_EQ(FingerprintPlan(real), FingerprintPlan(*real.root));
}

TEST(FingerprintTest, CombineIsOrderSensitive) {
  const uint64_t base = FingerprintString("db");
  const uint64_t ab = FingerprintCombine(FingerprintCombine(base, 1), 2);
  const uint64_t ba = FingerprintCombine(FingerprintCombine(base, 2), 1);
  EXPECT_NE(ab, ba);
  EXPECT_NE(FingerprintCombine(base, 1), base);
  EXPECT_NE(FingerprintString("db"), FingerprintString("db2"));
}

TEST(PhysicalPlanTest, ComputeOutputWidthsMatchesPerNodeCalls) {
  storage::Database db = MakeDb();
  auto plan = MakeJoinAggPlan();
  std::unordered_map<const PhysicalNode*, int64_t> widths;
  plan->ComputeOutputWidths(db, &widths);
  EXPECT_EQ(widths.size(), plan->SubtreeSize());
  plan->Visit([&](const PhysicalNode& node) {
    auto it = widths.find(&node);
    ASSERT_NE(it, widths.end());
    EXPECT_EQ(it->second, node.OutputWidthBytes(db));
  });
}

}  // namespace
}  // namespace zerodb::plan
