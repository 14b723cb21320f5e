#include <gtest/gtest.h>

#include <cstring>

#include "datagen/corpus.h"
#include "featurize/e2e_featurizer.h"
#include "featurize/mscn_featurizer.h"
#include "featurize/normalization.h"
#include "featurize/zeroshot_featurizer.h"
#include "optimizer/optimizer.h"
#include "train/dataset.h"
#include "workload/benchmarks.h"

namespace zerodb::featurize {
namespace {

// Two structurally identical databases that differ only in names — the
// zero-shot encoding must match between them; the one-hot encodings differ.
datagen::DatabaseEnv MakeNamedEnv(const std::string& db_name,
                                  const std::string& table_a,
                                  const std::string& table_b) {
  using catalog::ColumnSchema;
  using catalog::DataType;
  using catalog::TableSchema;
  storage::Database db(db_name);
  storage::Table a(TableSchema(table_a, {ColumnSchema{"id", DataType::kInt64, 8},
                                         ColumnSchema{"x", DataType::kInt64, 8}}));
  for (int i = 0; i < 500; ++i) {
    a.column(0).AppendInt64(i);
    // Skewed: value 3 dominates, so the uniform-over-distinct estimator is
    // wrong for most literals (estimated vs exact cardinalities diverge).
    a.column(1).AppendInt64(i < 400 ? 3 : i % 50);
  }
  storage::Table b(TableSchema(table_b, {ColumnSchema{"id", DataType::kInt64, 8},
                                         ColumnSchema{"a_ref", DataType::kInt64, 8},
                                         ColumnSchema{"y", DataType::kDouble, 8}}));
  for (int i = 0; i < 1500; ++i) {
    b.column(0).AppendInt64(i);
    b.column(1).AppendInt64(i % 500);
    b.column(2).AppendDouble(i * 0.25);
  }
  EXPECT_TRUE(db.AddTable(std::move(a)).ok());
  EXPECT_TRUE(db.AddTable(std::move(b)).ok());
  EXPECT_TRUE(db.mutable_catalog()
                  .AddForeignKey(catalog::ForeignKey{table_b, "a_ref", table_a,
                                                     "id"})
                  .ok());
  return datagen::MakeEnv(std::move(db));
}

plan::QuerySpec TwoWayJoinQuery(const std::string& table_a,
                                const std::string& table_b) {
  plan::QuerySpec query;
  query.tables = {table_a, table_b};
  query.joins = {plan::JoinSpec{table_b, "a_ref", table_a, "id"}};
  query.filters = {plan::FilterSpec{
      table_a, plan::Predicate::Compare(1, plan::CompareOp::kEq, 7)}};
  query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  return query;
}

train::QueryRecord MakeRecord(const datagen::DatabaseEnv& env,
                              const plan::QuerySpec& query) {
  auto records = train::CollectRecords(env, {query}, train::CollectOptions());
  EXPECT_EQ(records.size(), 1u);
  return std::move(records[0]);
}

TEST(ZeroShotFeaturizerTest, DatabaseIndependence) {
  // Same structure, different names/identities: identical features.
  auto env1 = MakeNamedEnv("db1", "alpha", "beta");
  auto env2 = MakeNamedEnv("db2", "gamma", "delta");
  auto record1 = MakeRecord(env1, TwoWayJoinQuery("alpha", "beta"));
  auto record2 = MakeRecord(env2, TwoWayJoinQuery("gamma", "delta"));

  ZeroShotFeaturizer featurizer(CardinalityMode::kEstimated);
  PlanGraph graph1 = featurizer.Featurize(*record1.plan.root, env1);
  PlanGraph graph2 = featurizer.Featurize(*record2.plan.root, env2);
  ASSERT_EQ(graph1.nodes.size(), graph2.nodes.size());
  ASSERT_EQ(graph1.dim, graph2.dim);
  for (size_t n = 0; n < graph1.nodes.size(); ++n) {
    EXPECT_EQ(graph1.nodes[n].op_type, graph2.nodes[n].op_type);
    for (size_t d = 0; d < graph1.dim; ++d) {
      EXPECT_FLOAT_EQ(graph1.row(n)[d], graph2.row(n)[d])
          << "node " << n << " dim " << d;
    }
  }
}

TEST(ZeroShotFeaturizerTest, GraphMirrorsPlanStructure) {
  auto env = MakeNamedEnv("db", "alpha", "beta");
  auto record = MakeRecord(env, TwoWayJoinQuery("alpha", "beta"));
  ZeroShotFeaturizer featurizer(CardinalityMode::kEstimated);
  PlanGraph graph = featurizer.Featurize(*record.plan.root, env);
  EXPECT_EQ(graph.nodes.size(), record.plan.root->SubtreeSize());
  ASSERT_EQ(graph.roots, std::vector<uint32_t>{0});
  // Root is an aggregate with one child.
  EXPECT_EQ(graph.children_of(0).size(), 1u);
  for (const PlanGraphNode& node : graph.nodes) {
    EXPECT_LE(node.level, graph.nodes[0].level);
  }
  EXPECT_EQ(graph.dim, ZeroShotFeaturizer::kFeatureDim);
  EXPECT_EQ(graph.features.size(),
            graph.nodes.size() * ZeroShotFeaturizer::kFeatureDim);
}

TEST(ZeroShotFeaturizerTest, ExactVsEstimatedDiffer) {
  auto env = MakeNamedEnv("db", "alpha", "beta");
  auto record = MakeRecord(env, TwoWayJoinQuery("alpha", "beta"));
  ZeroShotFeaturizer estimated(CardinalityMode::kEstimated);
  ZeroShotFeaturizer exact(CardinalityMode::kExact);
  PlanGraph g_est = estimated.Featurize(*record.plan.root, env);
  PlanGraph g_exact = exact.Featurize(*record.plan.root, env);
  // Cardinality features (dim 0) generally differ between modes.
  bool any_difference = false;
  for (size_t n = 0; n < g_est.nodes.size(); ++n) {
    if (g_est.row(n)[0] != g_exact.row(n)[0]) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ZeroShotFeaturizerTest, NoLiteralValuesInFeatures) {
  // Shifting every literal must not change zero-shot features when the
  // resulting cardinality estimates are forced equal (structure-only).
  auto env = MakeNamedEnv("db", "alpha", "beta");
  plan::QuerySpec q1 = TwoWayJoinQuery("alpha", "beta");
  auto r1 = MakeRecord(env, q1);
  // Same predicate structure, different literal with same est selectivity
  // (eq on x has uniform 1/nd for any in-domain literal).
  plan::QuerySpec q2 = q1;
  q2.filters[0].predicate = plan::Predicate::Compare(1, plan::CompareOp::kEq, 13);
  auto r2 = MakeRecord(env, q2);
  ZeroShotFeaturizer featurizer(CardinalityMode::kEstimated);
  PlanGraph g1 = featurizer.Featurize(*r1.plan.root, env);
  PlanGraph g2 = featurizer.Featurize(*r2.plan.root, env);
  ASSERT_EQ(g1.features.size(), g2.features.size());
  for (size_t i = 0; i < g1.features.size(); ++i) {
    EXPECT_FLOAT_EQ(g1.features[i], g2.features[i]);
  }
}

TEST(E2EFeaturizerTest, DatabaseDependence) {
  // The whole point of the contrast: E2E features DO depend on identity.
  auto env = MakeNamedEnv("db", "alpha", "beta");
  plan::QuerySpec on_alpha;
  on_alpha.tables = {"alpha"};
  on_alpha.filters = {plan::FilterSpec{
      "alpha", plan::Predicate::Compare(1, plan::CompareOp::kEq, 7)}};
  plan::QuerySpec on_beta;
  on_beta.tables = {"beta"};
  on_beta.filters = {plan::FilterSpec{
      "beta", plan::Predicate::Compare(2, plan::CompareOp::kGe, 10.0)}};
  auto r_alpha = MakeRecord(env, on_alpha);
  auto r_beta = MakeRecord(env, on_beta);

  E2EFeaturizer featurizer(CardinalityMode::kEstimated);
  PlanGraph g_alpha = featurizer.Featurize(*r_alpha.plan.root, env);
  PlanGraph g_beta = featurizer.Featurize(*r_beta.plan.root, env);
  // Table one-hot region (offset 9): alpha sets slot 9+0, beta slot 9+1.
  EXPECT_FLOAT_EQ(g_alpha.row(0)[9 + 0], 1.0f);
  EXPECT_FLOAT_EQ(g_alpha.row(0)[9 + 1], 0.0f);
  EXPECT_FLOAT_EQ(g_beta.row(0)[9 + 0], 0.0f);
  EXPECT_FLOAT_EQ(g_beta.row(0)[9 + 1], 1.0f);
}

TEST(E2EFeaturizerTest, LiteralValuesPresent) {
  auto env = MakeNamedEnv("db", "alpha", "beta");
  plan::QuerySpec q1 = TwoWayJoinQuery("alpha", "beta");
  plan::QuerySpec q2 = q1;
  q2.filters[0].predicate =
      plan::Predicate::Compare(1, plan::CompareOp::kEq, 45);
  auto r1 = MakeRecord(env, q1);
  auto r2 = MakeRecord(env, q2);
  E2EFeaturizer featurizer(CardinalityMode::kEstimated);
  PlanGraph g1 = featurizer.Featurize(*r1.plan.root, env);
  PlanGraph g2 = featurizer.Featurize(*r2.plan.root, env);
  ASSERT_EQ(g1.features.size(), g2.features.size());
  EXPECT_NE(g1.features, g2.features);  // literal 7 vs 45 visible to E2E
}

TEST(E2EFeaturizerTest, FeatureDimensionsConsistent) {
  auto env = datagen::MakeImdbEnv(5, 0.02);
  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(), 3);
  E2EFeaturizer featurizer(CardinalityMode::kEstimated);
  for (int i = 0; i < 10; ++i) {
    auto record = MakeRecord(env, generator.Next());
    PlanGraph graph = featurizer.Featurize(*record.plan.root, env);
    EXPECT_EQ(graph.dim, E2EFeaturizer::kFeatureDim);
    EXPECT_EQ(graph.features.size(),
              graph.nodes.size() * E2EFeaturizer::kFeatureDim);
  }
}

// Plans appended into one graph are laid out exactly as one Featurize call
// per plan would lay them out, shifted by the nodes and child ids before
// them: the same op types, levels and child ranges, and the same row bits.
template <typename Featurizer>
void ExpectAppendMatchesFeaturize(const Featurizer& featurizer) {
  auto env = datagen::MakeImdbEnv(5, 0.02);
  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(), 7);
  std::vector<plan::QuerySpec> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(generator.Next());
  const auto records =
      train::CollectRecords(env, queries, train::CollectOptions());
  ASSERT_GE(records.size(), 8u);
  PlanGraph all;
  for (const auto& record : records) {
    featurizer.Append(*record.plan.root, env, &all);
  }
  ASSERT_EQ(all.num_plans(), records.size());
  ASSERT_EQ(all.dim, Featurizer::kFeatureDim);
  size_t child_base = 0;
  for (size_t p = 0; p < records.size(); ++p) {
    SCOPED_TRACE(p);
    const PlanGraph one = featurizer.Featurize(*records[p].plan.root, env);
    const uint32_t root = all.roots[p];
    ASSERT_EQ(all.plan_end(p) - root, one.nodes.size());
    for (size_t n = 0; n < one.nodes.size(); ++n) {
      const PlanGraphNode& got = all.nodes[root + n];
      const PlanGraphNode& want = one.nodes[n];
      EXPECT_EQ(got.op_type, want.op_type);
      EXPECT_EQ(got.level, want.level);
      EXPECT_EQ(got.child_begin - child_base, want.child_begin);
      EXPECT_EQ(got.child_end - child_base, want.child_end);
      const std::span<const uint32_t> got_children = all.children_of(root + n);
      const std::span<const uint32_t> want_children = one.children_of(n);
      ASSERT_EQ(got_children.size(), want_children.size());
      for (size_t c = 0; c < want_children.size(); ++c) {
        EXPECT_EQ(got_children[c] - root, want_children[c]);
      }
      EXPECT_EQ(std::memcmp(all.row(root + n).data(), one.row(n).data(),
                            one.dim * sizeof(float)),
                0);
    }
    child_base += one.children.size();
  }
  EXPECT_EQ(all.children.size(), child_base);
}

TEST(PlanGraphTest, AppendedPlansMatchSinglePlanFeaturization) {
  {
    SCOPED_TRACE("zero-shot");
    ExpectAppendMatchesFeaturize(ZeroShotFeaturizer(CardinalityMode::kExact));
  }
  {
    SCOPED_TRACE("e2e");
    ExpectAppendMatchesFeaturize(E2EFeaturizer(CardinalityMode::kEstimated));
  }
}

TEST(MscnFeaturizerTest, SetSizesMatchQuery) {
  auto env = MakeNamedEnv("db", "alpha", "beta");
  plan::QuerySpec query = TwoWayJoinQuery("alpha", "beta");
  MscnFeaturizer featurizer;
  MscnSets sets = featurizer.Featurize(query, env);
  EXPECT_EQ(sets.tables.size(), 2u);
  EXPECT_EQ(sets.joins.size(), 1u);
  EXPECT_EQ(sets.predicates.size(), 1u);
  EXPECT_EQ(sets.tables[0].size(), MscnFeaturizer::kTableDim);
  EXPECT_EQ(sets.joins[0].size(), MscnFeaturizer::kJoinDim);
  EXPECT_EQ(sets.predicates[0].size(), MscnFeaturizer::kPredicateDim);
}

TEST(MscnFeaturizerTest, EmptySetsForSingleTableNoFilter) {
  auto env = MakeNamedEnv("db", "alpha", "beta");
  plan::QuerySpec query;
  query.tables = {"alpha"};
  query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  MscnFeaturizer featurizer;
  MscnSets sets = featurizer.Featurize(query, env);
  EXPECT_EQ(sets.tables.size(), 1u);
  EXPECT_TRUE(sets.joins.empty());
  EXPECT_TRUE(sets.predicates.empty());
}

TEST(MscnFeaturizerTest, OrPredicatesExpandToLeaves) {
  auto env = MakeNamedEnv("db", "alpha", "beta");
  plan::QuerySpec query;
  query.tables = {"alpha"};
  query.filters = {plan::FilterSpec{
      "alpha",
      plan::Predicate::Or({plan::Predicate::Compare(1, plan::CompareOp::kEq, 1),
                           plan::Predicate::Compare(1, plan::CompareOp::kEq, 2)})}};
  MscnFeaturizer featurizer;
  MscnSets sets = featurizer.Featurize(query, env);
  EXPECT_EQ(sets.predicates.size(), 2u);
}

TEST(NormalizationTest, FeatureNormStandardizes) {
  const std::vector<float> rows = {1.0f, 10.0f,  //
                                   3.0f, 10.0f};
  FeatureNorm norm;
  norm.Fit(rows, 2);
  float out[2];
  norm.Apply(std::span<const float>(rows).first(2), out);
  EXPECT_FLOAT_EQ(out[0], -1.0f);  // (1-2)/1
  EXPECT_FLOAT_EQ(out[1], 0.0f);   // constant dim: centered, unscaled
}

TEST(NormalizationTest, TargetNormRoundTrip) {
  TargetNorm norm;
  norm.Fit({LogMillis(1.0), LogMillis(2.0), LogMillis(3.0), LogMillis(4.0)});
  for (double v : {0.5, 2.5, 9.0}) {
    EXPECT_NEAR(norm.Denormalize(norm.Normalize(LogMillis(v))).value(), v,
                1e-12);
  }
}

TEST(NormalizationTest, UnfittedApplyIsNoop) {
  FeatureNorm norm;
  const std::vector<float> row = {5.0f};
  float out = 0.0f;
  norm.Apply(row, &out);
  EXPECT_FLOAT_EQ(out, 5.0f);
}

// A featurizer whose one feature is the node's child count.
class ChildCountFeaturizer : public TreeFeaturizer {
 public:
  ChildCountFeaturizer() : TreeFeaturizer(CardinalityMode::kEstimated, 1) {}

 private:
  void FillRow(const plan::PhysicalNode& node, const datagen::DatabaseEnv&,
               const plan::PlanSlots&, float* f) const override {
    f[0] = static_cast<float>(node.children.size());
  }
};

// Levels come out of the append walk itself: a leaf is 0 and a parent one
// above its highest child, on a plan whose branches differ in depth.
TEST(PlanGraphTest, LevelsFromWalk) {
  auto env = MakeNamedEnv("db", "alpha", "beta");
  // Aggregate(HashJoin(Sort(Filter(Scan alpha)), Scan beta)), preorder:
  // 0 aggregate, 1 join, 2 sort, 3 filter, 4 scan alpha, 5 scan beta.
  auto plan = plan::MakeSimpleAggregate(
      plan::MakeHashJoin(
          plan::MakeSort(
              plan::MakeFilter(
                  plan::MakeSeqScan("alpha", std::nullopt),
                  plan::Predicate::Compare(1, plan::CompareOp::kEq, 3)),
              {0}),
          plan::MakeSeqScan("beta", std::nullopt), 0, 1),
      {plan::AggregateExpr{}});
  const PlanGraph graph = ChildCountFeaturizer().Featurize(*plan, env);
  ASSERT_EQ(graph.nodes.size(), 6u);
  const std::vector<uint32_t> levels = {4, 3, 2, 1, 0, 0};
  for (size_t n = 0; n < graph.nodes.size(); ++n) {
    EXPECT_EQ(graph.nodes[n].level, levels[n]) << "node " << n;
    EXPECT_EQ(graph.row(n)[0],
              static_cast<float>(graph.children_of(n).size()));
  }
  ASSERT_EQ(graph.children_of(1).size(), 2u);
  EXPECT_EQ(graph.children_of(1)[0], 2u);
  EXPECT_EQ(graph.children_of(1)[1], 5u);
  EXPECT_EQ(graph.roots, std::vector<uint32_t>{0});
}

}  // namespace
}  // namespace zerodb::featurize
