#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/rng.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "optimizer/optimizer.h"
#include "plan/expr.h"
#include "plan/fingerprint.h"
#include "plan/physical.h"
#include "plan/query.h"
#include "storage/database.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

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

TEST(PhysicalPlanTest, OutputSlots) {
  storage::Database db = MakeDb();
  auto scan_a = MakeSeqScan("a", std::nullopt);
  const PhysicalNode* scan = scan_a.get();
  auto scan_b = MakeSeqScan("b", std::nullopt);
  auto join = MakeHashJoin(std::move(scan_a), std::move(scan_b), 0, 1);
  const PhysicalNode* joined = join.get();
  auto agg = MakeSimpleAggregate(std::move(join),
                                 {AggregateExpr{AggFunc::kCount, std::nullopt}});
  auto slots = DeriveOutputSlots(*agg, db);
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();
  EXPECT_EQ(slots->NumSlots(*scan), 2u);
  // a's columns, then b's: b.y is the only double.
  const std::vector<DataType> join_types(slots->Types(*joined).begin(),
                                         slots->Types(*joined).end());
  EXPECT_EQ(join_types,
            (std::vector<DataType>{DataType::kInt64, DataType::kInt64,
                                   DataType::kInt64, DataType::kInt64,
                                   DataType::kDouble}));
  EXPECT_EQ(slots->WidthBytes(*joined), 40);
  ASSERT_EQ(slots->NumSlots(*agg), 1u);
  EXPECT_EQ(slots->Types(*agg)[0], DataType::kDouble);
  EXPECT_EQ(slots->WidthBytes(*agg), 8);
}

TEST(PhysicalPlanTest, IndexNLJoinSlots) {
  storage::Database db = MakeDb();
  auto inlj = MakeIndexNLJoin(MakeSeqScan("a", std::nullopt), "b", 0, 1,
                              std::nullopt);
  auto slots = DeriveOutputSlots(*inlj, db);
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();
  ASSERT_EQ(slots->NumSlots(*inlj), 5u);
  EXPECT_EQ(slots->Types(*inlj)[4], DataType::kDouble);  // b.y
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

// --- Differential test: DeriveOutputSlots vs. the string schemas it replaced

// Provenance of one output slot, as the string-keyed schemas carried it.
// Synthetic columns (aggregate results) have table empty.
struct ReferenceColumn {
  std::string table;
  size_t column_index = 0;
  bool synthetic = false;
};

std::vector<ReferenceColumn> ReferenceTableColumns(
    const storage::Database& db, const std::string& table_name) {
  const storage::Table* table = db.FindTable(table_name);
  EXPECT_NE(table, nullptr) << "unknown table " << table_name;
  std::vector<ReferenceColumn> columns;
  if (table == nullptr) return columns;
  for (size_t i = 0; i < table->num_columns(); ++i) {
    columns.push_back(ReferenceColumn{table_name, i, false});
  }
  return columns;
}

// The output-schema rule as PhysicalNode::OutputSchema applied it before
// the derivation: rebuilt recursively, one string-keyed entry per slot.
std::vector<ReferenceColumn> ReferenceSchemaOf(const PhysicalNode& node,
                                               const storage::Database& db) {
  std::vector<ReferenceColumn> schema;
  switch (node.type) {
    case PhysicalOpType::kSeqScan:
    case PhysicalOpType::kIndexScan:
      schema = ReferenceTableColumns(db, node.table_name);
      break;
    case PhysicalOpType::kFilter:
    case PhysicalOpType::kSort:
      schema = ReferenceSchemaOf(*node.children[0], db);
      break;
    case PhysicalOpType::kHashJoin:
    case PhysicalOpType::kNestedLoopJoin: {
      schema = ReferenceSchemaOf(*node.children[0], db);
      std::vector<ReferenceColumn> right =
          ReferenceSchemaOf(*node.children[1], db);
      schema.insert(schema.end(), right.begin(), right.end());
      break;
    }
    case PhysicalOpType::kIndexNLJoin: {
      schema = ReferenceSchemaOf(*node.children[0], db);
      std::vector<ReferenceColumn> inner =
          ReferenceTableColumns(db, node.table_name);
      schema.insert(schema.end(), inner.begin(), inner.end());
      break;
    }
    case PhysicalOpType::kHashAggregate:
    case PhysicalOpType::kSimpleAggregate: {
      std::vector<ReferenceColumn> child_schema =
          ReferenceSchemaOf(*node.children[0], db);
      for (size_t slot : node.group_by_slots) {
        EXPECT_LT(slot, child_schema.size());
        if (slot < child_schema.size()) schema.push_back(child_schema[slot]);
      }
      for (size_t i = 0; i < node.aggregates.size(); ++i) {
        schema.push_back(ReferenceColumn{"", i, true});
      }
      break;
    }
  }
  return schema;
}

DataType ReferenceType(const ReferenceColumn& column,
                       const storage::Database& db) {
  if (column.synthetic) return DataType::kDouble;
  return db.FindTable(column.table)->schema().column(column.column_index).type;
}

int64_t ReferenceSlotWidth(const ReferenceColumn& column,
                           const storage::Database& db) {
  if (column.synthetic) return 8;
  return db.FindTable(column.table)
      ->column(column.column_index)
      .AvgWidthBytes();
}

// The old SchemaWidthBytes: the slot widths' sum, at least one byte.
int64_t ReferenceWidthBytes(const std::vector<ReferenceColumn>& schema,
                            const storage::Database& db) {
  int64_t width = 0;
  for (const ReferenceColumn& column : schema) {
    width += ReferenceSlotWidth(column, db);
  }
  return std::max<int64_t>(width, 1);
}

// Every node's slot count, slot types, slot widths and output width from
// one DeriveOutputSlots call equal the reference schema's.
void ExpectSlotsMatchReference(const PhysicalNode& root,
                               const storage::Database& db) {
  SCOPED_TRACE(root.ToString(db));
  auto slots = DeriveOutputSlots(root, db);
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();
  root.Visit([&](const PhysicalNode& node) {
    const std::vector<ReferenceColumn> schema = ReferenceSchemaOf(node, db);
    ASSERT_EQ(slots->NumSlots(node), schema.size())
        << PhysicalOpName(node.type);
    for (size_t slot = 0; slot < schema.size(); ++slot) {
      EXPECT_EQ(slots->Types(node)[slot], ReferenceType(schema[slot], db))
          << PhysicalOpName(node.type) << " slot " << slot;
      EXPECT_EQ(slots->SlotWidths(node)[slot],
                ReferenceSlotWidth(schema[slot], db))
          << PhysicalOpName(node.type) << " slot " << slot;
    }
    EXPECT_EQ(slots->WidthBytes(node), ReferenceWidthBytes(schema, db))
        << PhysicalOpName(node.type);
  });
}

TEST(OutputSlotsTest, HandBuiltPlansMatchStringSchemas) {
  storage::Database db = MakeDb();
  // s(id, name): a string column whose width comes from its dictionary.
  storage::Table s(TableSchema("s", {ColumnSchema{"id", DataType::kInt64, 8},
                                     ColumnSchema{"name", DataType::kString,
                                                  6}}));
  const char* names[] = {"x", "yy", "a-much-longer-name"};
  for (int i = 0; i < 3; ++i) {
    s.column(0).AppendInt64(i);
    s.column(1).AppendString(names[i]);
  }
  ASSERT_TRUE(db.AddTable(std::move(s)).ok());

  std::vector<std::unique_ptr<PhysicalNode>> plans;
  plans.push_back(MakeJoinAggPlan());
  // Sort over Filter over a join.
  plans.push_back(MakeSort(
      MakeFilter(MakeHashJoin(MakeSeqScan("a", std::nullopt),
                              MakeSeqScan("b", std::nullopt), 0, 1),
                 Predicate::Compare(4, CompareOp::kGt, 1.0)),
      {4, 0}));
  // HashAggregate grouping by a string and a numeric slot of an
  // IndexNLJoin over an index scan.
  plans.push_back(MakeHashAggregate(
      MakeIndexNLJoin(MakeIndexScan("s", 0, 0.0, 2.0, std::nullopt), "b", 0,
                      0, Predicate::Compare(2, CompareOp::kLt, 2.0)),
      {1, 4}, {AggregateExpr{AggFunc::kCount, std::nullopt},
               AggregateExpr{AggFunc::kSum, 4}}));
  // SimpleAggregate over a nested-loop join whose right input is a
  // HashAggregate: an aggregate below a join.
  plans.push_back(MakeSimpleAggregate(
      MakeNestedLoopJoin(
          MakeSeqScan("s", std::nullopt),
          MakeHashAggregate(MakeSeqScan("s", std::nullopt), {1},
                            {AggregateExpr{AggFunc::kMax, 0}}),
          1, 0),
      {AggregateExpr{AggFunc::kCount, std::nullopt},
       AggregateExpr{AggFunc::kAvg, 0}}));
  for (const auto& plan : plans) ExpectSlotsMatchReference(*plan, db);
}

TEST(OutputSlotsTest, PlannerPlansMatchStringSchemas) {
  // Seeded queries over corpus databases, a 9-10-table database and IMDB,
  // each planned with the default options and as a what-if plan over a
  // seeded half of all columns as hypothetical indexes.
  std::vector<datagen::DatabaseEnv> envs =
      datagen::MakeTrainingCorpus(31, 4, 0.05);
  {
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
  envs.push_back(datagen::MakeImdbEnv(17, 0.05));
  workload::WorkloadConfig config = workload::TrainingWorkloadConfig();
  config.max_tables = 8;

  std::vector<size_t> op_counts(kNumPhysicalOpTypes, 0);
  size_t plans = 0;
  for (size_t e = 0; e < envs.size(); ++e) {
    const datagen::DatabaseEnv& env = envs[e];
    optimizer::PlannerOptions what_if;
    Rng rng(1000 + e);
    for (const storage::Table& table : env.db->tables()) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        if (rng.UniformDouble() < 0.5) {
          what_if.hypothetical_indexes.push_back({table.name(), c});
        }
      }
    }
    workload::QueryGenerator generator(&env, config, 500 + e);
    for (int i = 0; i < 100; ++i) {
      const QuerySpec query = generator.Next();
      for (const optimizer::PlannerOptions& options :
           {optimizer::PlannerOptions(), what_if}) {
        const optimizer::Planner planner(env.db.get(), &env.stats,
                                         optimizer::CostParams(), options);
        auto plan = planner.Plan(query);
        ASSERT_TRUE(plan.ok()) << query.ToSql(*env.db);
        ExpectSlotsMatchReference(*plan->root, *env.db);
        plan->root->Visit([&](const PhysicalNode& node) {
          ++op_counts[static_cast<size_t>(node.type)];
        });
        ++plans;
      }
    }
  }
  EXPECT_EQ(plans, envs.size() * 200);
  // The planner emits every join kind, index scans and both aggregates.
  for (PhysicalOpType type :
       {PhysicalOpType::kSeqScan, PhysicalOpType::kIndexScan,
        PhysicalOpType::kHashJoin, PhysicalOpType::kNestedLoopJoin,
        PhysicalOpType::kIndexNLJoin, PhysicalOpType::kHashAggregate,
        PhysicalOpType::kSimpleAggregate}) {
    EXPECT_GT(op_counts[static_cast<size_t>(type)], 0u)
        << PhysicalOpName(type);
  }
}

}  // namespace
}  // namespace zerodb::plan
