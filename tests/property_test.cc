// Property-based tests: invariants checked across randomized inputs using
// parameterized gtest sweeps (seeds / sizes as parameters).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/math_util.h"
#include "common/rng.h"
#include "datagen/corpus.h"
#include "datagen/distributions.h"
#include "exec/executor.h"
#include "featurize/zeroshot_featurizer.h"
#include "gradient_check.h"
#include "nn/layers.h"
#include "optimizer/optimizer.h"
#include "plan/expr.h"
#include "runtime/simulator.h"
#include "sql/parser.h"
#include "stats/histogram.h"
#include "train/dataset.h"
#include "workload/benchmarks.h"

namespace zerodb {
namespace {

// ---------------------------------------------------------------------------
// Predicate evaluation: random predicate trees against a brute-force
// reference evaluator.
// ---------------------------------------------------------------------------

class PredicateProperty : public ::testing::TestWithParam<uint64_t> {};

plan::Predicate RandomPredicate(Rng* rng, size_t num_slots, size_t depth) {
  if (depth == 0 || rng->Bernoulli(0.5)) {
    static constexpr plan::CompareOp kOps[] = {
        plan::CompareOp::kEq, plan::CompareOp::kNe, plan::CompareOp::kLt,
        plan::CompareOp::kLe, plan::CompareOp::kGt, plan::CompareOp::kGe};
    return plan::Predicate::Compare(rng->NextUint64(num_slots),
                                    kOps[rng->NextUint64(6)],
                                    static_cast<double>(rng->UniformInt(-5, 5)));
  }
  std::vector<plan::Predicate> children;
  size_t arity = 2 + rng->NextUint64(2);
  for (size_t i = 0; i < arity; ++i) {
    children.push_back(RandomPredicate(rng, num_slots, depth - 1));
  }
  return rng->Bernoulli(0.5) ? plan::Predicate::And(std::move(children))
                             : plan::Predicate::Or(std::move(children));
}

bool ReferenceEval(const plan::Predicate& p, const std::vector<double>& row) {
  switch (p.kind()) {
    case plan::Predicate::Kind::kCompare:
      return plan::EvaluateCompare(row[p.slot()], p.op(), p.literal());
    case plan::Predicate::Kind::kAnd: {
      bool result = true;
      for (const auto& child : p.children()) {
        result = result && ReferenceEval(child, row);  // no short circuit
      }
      return result;
    }
    case plan::Predicate::Kind::kOr: {
      bool result = false;
      for (const auto& child : p.children()) {
        result = result || ReferenceEval(child, row);
      }
      return result;
    }
  }
  return false;
}

TEST_P(PredicateProperty, EvaluateMatchesReference) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    plan::Predicate predicate = RandomPredicate(&rng, 4, 3);
    for (int row_trial = 0; row_trial < 20; ++row_trial) {
      std::vector<double> row(4);
      for (double& v : row) v = static_cast<double>(rng.UniformInt(-5, 5));
      EXPECT_EQ(predicate.Evaluate(row), ReferenceEval(predicate, row));
    }
  }
}

TEST_P(PredicateProperty, RemapPreservesSemantics) {
  Rng rng(GetParam() ^ 0xabc);
  for (int trial = 0; trial < 30; ++trial) {
    plan::Predicate predicate = RandomPredicate(&rng, 3, 2);
    std::vector<size_t> map = {5, 1, 3};  // old slot -> new slot
    plan::Predicate remapped = predicate.RemapSlots(map);
    for (int row_trial = 0; row_trial < 20; ++row_trial) {
      std::vector<double> wide(6);
      for (double& v : wide) v = static_cast<double>(rng.UniformInt(-5, 5));
      std::vector<double> narrow = {wide[5], wide[1], wide[3]};
      EXPECT_EQ(predicate.Evaluate(narrow), remapped.Evaluate(wide));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Histograms: selectivity estimates against empirical frequencies.
// ---------------------------------------------------------------------------

class HistogramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramProperty, RangeSelectivityTracksEmpirical) {
  Rng rng(GetParam());
  // Mixture distribution: uniform + gaussian bumps + point masses.
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    switch (rng.NextUint64(3)) {
      case 0:
        values.push_back(rng.UniformDouble(0, 1000));
        break;
      case 1:
        values.push_back(rng.Normal(300, 20));
        break;
      default:
        values.push_back(static_cast<double>(rng.UniformInt(0, 5)) * 100);
    }
  }
  auto histogram = stats::EquiDepthHistogram::Build(values, 64);
  for (int trial = 0; trial < 20; ++trial) {
    double lo = rng.UniformDouble(-100, 1100);
    double hi = lo + rng.UniformDouble(0, 600);
    double estimated = histogram.SelectivityRange(lo, hi);
    size_t matches = 0;
    for (double v : values) {
      if (v >= lo && v <= hi) ++matches;
    }
    double empirical = static_cast<double>(matches) / values.size();
    EXPECT_NEAR(estimated, empirical, 0.06)
        << "range [" << lo << ", " << hi << "]";
    EXPECT_GE(estimated, 0.0);
    EXPECT_LE(estimated, 1.0);
  }
}

TEST_P(HistogramProperty, SelectivityLeIsMonotone) {
  Rng rng(GetParam() ^ 0x77);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.Normal(0, 50));
  auto histogram = stats::EquiDepthHistogram::Build(values, 32);
  double previous = -1.0;
  for (double x = -200; x <= 200; x += 5) {
    double sel = histogram.SelectivityLe(x);
    EXPECT_GE(sel, previous);
    previous = sel;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------------
// Zipf distribution: rank frequencies are non-increasing.
// ---------------------------------------------------------------------------

class ZipfProperty : public ::testing::TestWithParam<double> {};

TEST_P(ZipfProperty, FrequenciesNonIncreasingInRank) {
  Rng rng(5);
  datagen::ZipfDistribution dist(20, GetParam());
  std::vector<int> counts(20, 0);
  for (int i = 0; i < 40000; ++i) counts[dist.Draw(&rng)]++;
  // Compare smoothed neighbors (sampling noise tolerance).
  for (size_t r = 0; r + 2 < counts.size(); ++r) {
    EXPECT_GE(counts[r] + 300, counts[r + 2]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfProperty,
                         ::testing::Values(0.0, 0.5, 1.0, 1.5));

// ---------------------------------------------------------------------------
// Gradients: the row pass's backward against central differences, across
// randomized Mlp shapes, weights, inputs and loss scales.
// ---------------------------------------------------------------------------

class MlpGradientProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MlpGradientProperty, RandomShapeGradientsMatchCentralDifferences) {
  Rng rng(GetParam());
  nn::MlpConfig config;
  config.in_features = static_cast<size_t>(rng.UniformInt(1, 6));
  const int64_t hidden_layers = rng.UniformInt(0, 3);
  for (int64_t l = 0; l < hidden_layers; ++l) {
    config.hidden_sizes.push_back(static_cast<size_t>(rng.UniformInt(1, 9)));
  }
  config.out_features = 1;
  nn::ParameterBlock params;
  nn::Mlp mlp(config, &rng, &params);
  const size_t rows = static_cast<size_t>(rng.UniformInt(1, 5));
  std::vector<float> x(rows * config.in_features);
  for (float& v : x) v = static_cast<float>(rng.UniformDouble(-1, 1));
  std::vector<float> targets(rows);
  for (float& t : targets) t = static_cast<float>(rng.UniformDouble(-2, 2));
  const float scale = static_cast<float>(rng.UniformDouble(0.1, 1.0));
  SCOPED_TRACE(testing::Message()
               << "in " << config.in_features << ", hidden layers "
               << hidden_layers << ", rows " << rows << ", scale " << scale);
  gradcheck::ExpectMlpGradientsMatch(mlp, &params, x, targets, scale);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlpGradientProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ---------------------------------------------------------------------------
// Planner/executor: for random queries on random databases, every planner
// configuration computes the same result set size, and annotations are sane.
// ---------------------------------------------------------------------------

class PlannerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerProperty, AllPlannerConfigsAgreeOnResults) {
  datagen::GeneratorConfig gen_config;
  gen_config.min_rows = 200;
  gen_config.max_rows = 2000;
  storage::Database db =
      datagen::GenerateRandomDatabase("prop", GetParam(), gen_config);
  Rng index_rng(GetParam() ^ 1);
  datagen::AddDefaultIndexes(&db, &index_rng, 0.5);
  datagen::DatabaseEnv env = datagen::MakeEnv(std::move(db));

  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(),
                                     GetParam() ^ 2);
  exec::Executor executor(env.db.get());

  optimizer::PlannerOptions no_index;
  no_index.enable_index_scan = false;
  no_index.enable_index_nl_join = false;
  optimizer::PlannerOptions no_nlj;
  no_nlj.nlj_row_threshold = 0;

  int verified = 0;
  for (int trial = 0; trial < 15 && verified < 10; ++trial) {
    plan::QuerySpec query = generator.Next();
    std::optional<size_t> expected_rows;
    for (const optimizer::PlannerOptions& options :
         {optimizer::PlannerOptions(), no_index, no_nlj}) {
      optimizer::Planner planner(env.db.get(), &env.stats,
                                 optimizer::CostParams(), options);
      auto plan = planner.Plan(query);
      ASSERT_TRUE(plan.ok()) << query.ToSql(*env.db);
      auto result = executor.Execute(&*plan);
      if (!result.ok()) {
        expected_rows.reset();
        break;
      }
      if (!expected_rows.has_value()) {
        expected_rows = result->output.num_rows();
        ++verified;
      } else {
        ASSERT_EQ(result->output.num_rows(), *expected_rows)
            << query.ToSql(*env.db);
      }
    }
  }
  EXPECT_GE(verified, 5);
}

TEST_P(PlannerProperty, ExecutedPlansHaveConsistentAnnotations) {
  auto env = datagen::MakeImdbEnv(GetParam(), 0.03);
  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(),
                                     GetParam());
  auto records = train::CollectRecords(
      env,
      [&] {
        std::vector<plan::QuerySpec> queries;
        for (int i = 0; i < 20; ++i) queries.push_back(generator.Next());
        return queries;
      }(),
      train::CollectOptions());
  for (const train::QueryRecord& record : records) {
    record.plan.root->Visit([&](const plan::PhysicalNode& node) {
      EXPECT_GE(node.true_cardinality, 0.0);   // executed
      EXPECT_GT(node.est_cardinality, 0.0);    // planned
      EXPECT_GT(node.est_cost, 0.0);
      // Children costs never exceed the parent's cumulative cost.
      for (const auto& child : node.children) {
        EXPECT_LE(child->est_cost, node.est_cost + 1e-6);
      }
    });
    EXPECT_GT(record.runtime_ms, 0.0);
    EXPECT_GT(record.opt_cost, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerProperty,
                         ::testing::Values(7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Featurization: database-independence across random structurally-identical
// databases, and feature vectors are always finite.
// ---------------------------------------------------------------------------

class FeaturizeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FeaturizeProperty, FeaturesAlwaysFiniteAndFixedWidth) {
  auto env = datagen::MakeImdbEnv(GetParam(), 0.03);
  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(),
                                     GetParam() * 13);
  std::vector<plan::QuerySpec> queries;
  for (int i = 0; i < 15; ++i) queries.push_back(generator.Next());
  auto records = train::CollectRecords(env, queries, train::CollectOptions());
  for (auto mode : {featurize::CardinalityMode::kEstimated,
                    featurize::CardinalityMode::kExact}) {
    featurize::ZeroShotFeaturizer featurizer(mode);
    for (const auto& record : records) {
      featurize::PlanGraph graph =
          featurizer.Featurize(*record.plan.root, env);
      EXPECT_EQ(graph.nodes.size(), record.plan.root->SubtreeSize());
      constexpr size_t kDim = featurize::ZeroShotFeaturizer::kFeatureDim;
      ASSERT_EQ(graph.dim, kDim);
      ASSERT_EQ(graph.features.size(), graph.nodes.size() * kDim);
      for (float f : graph.features) {
        EXPECT_TRUE(std::isfinite(f));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeaturizeProperty,
                         ::testing::Values(21, 22, 23));

// ---------------------------------------------------------------------------
// Runtime simulator: determinism and additivity.
// ---------------------------------------------------------------------------

class SimulatorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorProperty, DeterministicAndAdditive) {
  auto env = datagen::MakeImdbEnv(GetParam(), 0.03);
  workload::QueryGenerator generator(&env,
                                     workload::TrainingWorkloadConfig(),
                                     GetParam());
  optimizer::Planner planner(env.db.get(), &env.stats);
  exec::Executor executor(env.db.get());
  runtime::RuntimeSimulator simulator;
  for (int trial = 0; trial < 10; ++trial) {
    auto plan = planner.Plan(generator.Next());
    ASSERT_TRUE(plan.ok());
    auto result = executor.Execute(&*plan);
    if (!result.ok()) continue;
    double total1 = simulator.PlanMs(*plan, *result);
    double total2 = simulator.PlanMs(*plan, *result);
    EXPECT_DOUBLE_EQ(total1, total2);  // deterministic
    // Additivity: total = startup + sum of operator times.
    double sum = simulator.profile().startup_ms;
    plan->root->Visit([&](const plan::PhysicalNode& node) {
      sum += simulator.OperatorMs(node.type, result->StatsFor(node),
                                  node.aggregates.size());
    });
    EXPECT_NEAR(total1, sum, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorProperty,
                         ::testing::Values(31, 32, 33));

// ---------------------------------------------------------------------------
// SQL round trip: generated query -> ToSql -> ParseQuery produces a query
// with identical structure AND identical execution results.
// ---------------------------------------------------------------------------

class SqlRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlRoundTripProperty, GeneratedQueriesSurviveToSqlParse) {
  auto env = datagen::MakeImdbEnv(GetParam(), 0.03);
  workload::WorkloadConfig config = workload::TrainingWorkloadConfig();
  config.group_by_prob = 0.3;  // exercise GROUP BY round-tripping too
  workload::QueryGenerator generator(&env, config, GetParam() * 7);
  optimizer::Planner planner(env.db.get(), &env.stats);
  exec::Executor executor(env.db.get());

  int verified = 0;
  for (int trial = 0; trial < 25 && verified < 15; ++trial) {
    plan::QuerySpec original = generator.Next();
    std::string sql = original.ToSql(*env.db);
    auto reparsed = sql::ParseQuery(sql, *env.db);
    ASSERT_TRUE(reparsed.ok()) << sql << "\n -> " << reparsed.status().ToString();
    EXPECT_EQ(reparsed->tables.size(), original.tables.size()) << sql;
    EXPECT_EQ(reparsed->joins.size(), original.joins.size()) << sql;
    EXPECT_EQ(reparsed->filters.size(), original.filters.size()) << sql;
    EXPECT_EQ(reparsed->aggregates.size(), original.aggregates.size()) << sql;
    EXPECT_EQ(reparsed->group_by.size(), original.group_by.size()) << sql;

    // The strongest check: both versions compute the same result.
    auto plan_a = planner.Plan(original);
    auto plan_b = planner.Plan(*reparsed);
    ASSERT_TRUE(plan_a.ok() && plan_b.ok()) << sql;
    auto result_a = executor.Execute(&*plan_a);
    auto result_b = executor.Execute(&*plan_b);
    if (!result_a.ok() || !result_b.ok()) continue;
    ASSERT_EQ(result_a->output.num_rows(), result_b->output.num_rows()) << sql;
    // Single-row aggregate outputs must match value-for-value.
    if (result_a->output.num_rows() == 1 &&
        result_a->output.num_columns() == result_b->output.num_columns()) {
      for (size_t c = 0; c < result_a->output.num_columns(); ++c) {
        EXPECT_DOUBLE_EQ(result_a->output.columns[c][0],
                         result_b->output.columns[c][0])
            << sql << " column " << c;
      }
    }
    ++verified;
  }
  EXPECT_GE(verified, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlRoundTripProperty,
                         ::testing::Values(51, 52, 53));

// ---------------------------------------------------------------------------
// Q-error invariants.
// ---------------------------------------------------------------------------

class QErrorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QErrorProperty, Invariants) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    double a = std::exp(rng.UniformDouble(-5, 5));
    double b = std::exp(rng.UniformDouble(-5, 5));
    double q = QError(a, b);
    EXPECT_GE(q, 1.0);                             // lower bound
    EXPECT_DOUBLE_EQ(q, QError(b, a));             // symmetry
    EXPECT_DOUBLE_EQ(QError(a, a), 1.0);           // identity
    double scale = std::exp(rng.UniformDouble(-2, 2));
    EXPECT_NEAR(QError(scale * a, scale * b), q, 1e-9 * q);  // scale-free
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QErrorProperty, ::testing::Values(41, 42));

}  // namespace
}  // namespace zerodb
