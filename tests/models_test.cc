#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "models/e2e_model.h"
#include "models/mscn_model.h"
#include "models/scaled_cost_model.h"
#include "models/zeroshot_model.h"
#include "nn/arena.h"
#include "optimizer/optimizer.h"
#include "plan/fingerprint.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "train/trainer.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace zerodb::models {

// Reaches TreeMessagePassingModel's private forward passes (friend), so the
// differential test below can run both on the same featurized graphs.
class TreeModelTestPeer {
 public:
  static std::vector<featurize::PlanGraph> Featurize(
      const TreeMessagePassingModel& model,
      const std::vector<const QueryRecord*>& records) {
    std::vector<featurize::PlanGraph> graphs;
    for (const QueryRecord* record : records) {
      graphs.push_back(model.FeaturizeNormalized(*record));
    }
    return graphs;
  }
  static std::vector<float> Autodiff(
      TreeMessagePassingModel* model,
      const std::vector<const featurize::PlanGraph*>& graphs) {
    return model->Forward(graphs).data();
  }
  static float TensorFree(TreeMessagePassingModel* model,
                          const featurize::PlanGraph& graph) {
    return model->PredictNormalized(graph);
  }
  static Millis Denormalize(const TreeMessagePassingModel& model,
                            float normalized) {
    return Millis::FromLog(model.target_norm_.Denormalize(normalized));
  }
};

namespace {

// Shared tiny fixture: one small IMDB-like env and a workload on it.
class ModelsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new datagen::DatabaseEnv(datagen::MakeImdbEnv(31, 0.03));
    workload::WorkloadConfig config = workload::TrainingWorkloadConfig();
    records_ = new std::vector<train::QueryRecord>(
        train::CollectRandomWorkload(*env_, config, 200, 41,
                                     train::CollectOptions()));
    ASSERT_GE(records_->size(), 150u);
  }
  static void TearDownTestSuite() {
    delete records_;
    delete env_;
    records_ = nullptr;
    env_ = nullptr;
  }

  static datagen::DatabaseEnv* env_;
  static std::vector<train::QueryRecord>* records_;
};

datagen::DatabaseEnv* ModelsTest::env_ = nullptr;
std::vector<train::QueryRecord>* ModelsTest::records_ = nullptr;

TEST_F(ModelsTest, ZeroShotTrainsToLowError) {
  ZeroShotCostModel::Options options;
  options.hidden_dim = 32;
  ZeroShotCostModel model(options);
  train::TrainerOptions trainer;
  trainer.max_epochs = 30;
  train::TrainResult result =
      train::TrainModel(&model, train::MakeView(*records_), trainer);
  EXPECT_GT(result.epochs_run, 0u);
  EXPECT_LT(result.best_validation_loss, 0.2);

  auto view = train::MakeView(*records_);
  auto predictions = model.PredictMs(view);
  std::vector<double> truth;
  for (const auto& record : *records_) truth.push_back(record.runtime_ms);
  train::QErrorStats stats = train::ComputeQErrors(predictions, truth);
  EXPECT_LT(stats.median, 1.5) << stats.ToString();
}

TEST_F(ModelsTest, ZeroShotExactCardinalitiesAtLeastAsGoodTraining) {
  ZeroShotCostModel::Options options;
  options.hidden_dim = 32;
  options.cardinality_mode = featurize::CardinalityMode::kExact;
  ZeroShotCostModel model(options);
  train::TrainerOptions trainer;
  trainer.max_epochs = 30;
  train::TrainModel(&model, train::MakeView(*records_), trainer);
  auto view = train::MakeView(*records_);
  auto predictions = model.PredictMs(view);
  std::vector<double> truth;
  for (const auto& record : *records_) truth.push_back(record.runtime_ms);
  train::QErrorStats stats = train::ComputeQErrors(predictions, truth);
  EXPECT_LT(stats.median, 1.5) << stats.ToString();
}

TEST_F(ModelsTest, E2ETrainsOnOneDatabase) {
  E2ECostModel::Options options;
  options.hidden_dim = 32;
  E2ECostModel model(options);
  train::TrainerOptions trainer;
  trainer.max_epochs = 30;
  train::TrainModel(&model, train::MakeView(*records_), trainer);
  auto view = train::MakeView(*records_);
  auto predictions = model.PredictMs(view);
  std::vector<double> truth;
  for (const auto& record : *records_) truth.push_back(record.runtime_ms);
  train::QErrorStats stats = train::ComputeQErrors(predictions, truth);
  EXPECT_LT(stats.median, 2.0) << stats.ToString();
}

TEST_F(ModelsTest, MscnTrainsButCoarser) {
  MscnCostModel::Options options;
  options.hidden_dim = 32;
  MscnCostModel model(options);
  train::TrainerOptions trainer;
  trainer.max_epochs = 30;
  train::TrainModel(&model, train::MakeView(*records_), trainer);
  auto view = train::MakeView(*records_);
  auto predictions = model.PredictMs(view);
  std::vector<double> truth;
  for (const auto& record : *records_) truth.push_back(record.runtime_ms);
  train::QErrorStats stats = train::ComputeQErrors(predictions, truth);
  // MSCN sees no plan structure; it still must beat wild guessing.
  EXPECT_LT(stats.median, 5.0) << stats.ToString();
}

TEST_F(ModelsTest, ScaledOptCostFitsAndPredicts) {
  ScaledOptCostModel model;
  auto view = train::MakeView(*records_);
  model.Fit(view);
  ASSERT_TRUE(model.fitted());
  auto predictions = model.PredictMs(view);
  ASSERT_EQ(predictions.size(), records_->size());
  for (Millis p : predictions) {
    EXPECT_GT(p.value(), 0.0);
    EXPECT_TRUE(std::isfinite(p.value()));
  }
  std::vector<double> truth;
  for (const auto& record : *records_) truth.push_back(record.runtime_ms);
  train::QErrorStats stats = train::ComputeQErrors(predictions, truth);
  EXPECT_LT(stats.median, 5.0) << stats.ToString();
}

TEST_F(ModelsTest, ModelsExposeParameters) {
  ZeroShotCostModel::Options zs_options;
  zs_options.hidden_dim = 16;
  ZeroShotCostModel zero_shot(zs_options);
  // 9 encoders x 3 linear layers x 2 tensors + combine 3x2 + readout 3x2.
  EXPECT_EQ(zero_shot.Parameters().size(), 9u * 6 + 6 + 6);

  E2ECostModel::Options e2e_options;
  e2e_options.hidden_dim = 16;
  E2ECostModel e2e(e2e_options);
  EXPECT_EQ(e2e.Parameters().size(), 6u + 6 + 6);

  MscnCostModel::Options mscn_options;
  mscn_options.hidden_dim = 16;
  MscnCostModel mscn(mscn_options);
  EXPECT_EQ(mscn.Parameters().size(), 4u * 4);  // 4 MLPs x 2 layers x (W,b)
}

TEST_F(ModelsTest, PredictionsAreDeterministic) {
  ZeroShotCostModel::Options options;
  options.hidden_dim = 16;
  ZeroShotCostModel model(options);
  train::TrainerOptions trainer;
  trainer.max_epochs = 3;
  train::TrainModel(&model, train::MakeView(*records_), trainer);
  auto view = train::MakeView(*records_);
  auto first = model.PredictMs(view);
  auto second = model.PredictMs(view);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i].value(), second[i].value());
  }
}

TEST_F(ModelsTest, TrainerEarlyStopsAndRestoresBest) {
  ZeroShotCostModel::Options options;
  options.hidden_dim = 16;
  ZeroShotCostModel model(options);
  train::TrainerOptions trainer;
  trainer.max_epochs = 200;
  trainer.early_stop_patience = 3;
  train::TrainResult result =
      train::TrainModel(&model, train::MakeView(*records_), trainer);
  // With 200 allowed epochs and patience 3, early stopping should engage.
  EXPECT_TRUE(result.early_stopped || result.epochs_run == 200);
  EXPECT_LT(result.epochs_run, 201u);
}

TEST(MetricsTest, QErrorStats) {
  train::QErrorStats stats =
      train::ComputeQErrors({10, 20, 40}, {10, 10, 10});
  EXPECT_DOUBLE_EQ(stats.median, 2.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(MetricsTest, EmptyInput) {
  train::QErrorStats stats =
      train::ComputeQErrors(std::vector<double>{}, std::vector<double>{});
  EXPECT_EQ(stats.count, 0u);
}

// memcmp, not ==: -0.0f == +0.0f, and the serving pass must reproduce the
// sign the autodiff pass's zeroed scatter targets produce.
template <typename T>
bool SameBits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// A hand-built plan graph with wider fan-out than any physical plan (joins
// are binary), so the child-sum order is observable: float addition
// commutes, so two children sum the same either way, but three do not.
// Features mix normals, signed zeros and all-zero 4-blocks (the matmul
// kernel's skip path).
featurize::PlanGraph RandomWideGraph(Rng* rng, size_t feature_dim,
                                     size_t num_encoders) {
  featurize::PlanGraph graph;
  const size_t target = static_cast<size_t>(rng->UniformInt(1, 40));
  graph.nodes.emplace_back();
  for (size_t parent = 0;
       parent < graph.nodes.size() && graph.nodes.size() < target; ++parent) {
    const size_t fan_out = static_cast<size_t>(rng->UniformInt(0, 5));
    for (size_t c = 0; c < fan_out && graph.nodes.size() < target; ++c) {
      graph.nodes[parent].children.push_back(graph.nodes.size());
      graph.nodes.emplace_back();
    }
  }
  for (featurize::PlanGraphNode& node : graph.nodes) {
    node.op_type = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(num_encoders) - 1));
    node.features.resize(feature_dim);
    for (size_t f = 0; f < feature_dim; f += 4) {
      const bool zero_block = rng->Bernoulli(0.3);
      for (size_t j = f; j < std::min(f + 4, feature_dim); ++j) {
        const double kind = rng->UniformDouble();
        node.features[j] = zero_block      ? 0.0f
                           : kind < 0.1    ? -0.0f
                           : kind < 0.2    ? 0.0f
                                           : static_cast<float>(rng->Normal());
      }
    }
  }
  graph.ComputeLevels();
  return graph;
}

// Plans from one source and whether they were executed (exact-cardinality
// featurization needs true cardinalities).
struct PlanSet {
  std::string name;
  std::vector<const QueryRecord*> records;
  bool executed = true;
};

// IMDB queries planned against hypothetical indexes on every filtered
// column: the what-if advisor's plans, never executed.
std::vector<train::QueryRecord> WhatIfPlans(const datagen::DatabaseEnv& env) {
  std::vector<train::QueryRecord> records;
  workload::QueryGenerator generator(&env, workload::TrainingWorkloadConfig(),
                                     97);
  size_t changed = 0;
  for (int i = 0; i < 60; ++i) {
    plan::QuerySpec query = generator.Next();
    optimizer::PlannerOptions options;
    for (const plan::FilterSpec& filter : query.filters) {
      for (size_t slot : filter.predicate.ReferencedSlots()) {
        options.hypothetical_indexes.push_back(
            optimizer::HypotheticalIndex{filter.table, slot});
      }
    }
    auto plain = optimizer::Planner(env.db.get(), &env.stats).Plan(query);
    auto planned = optimizer::Planner(env.db.get(), &env.stats,
                                      optimizer::CostParams(), options)
                       .Plan(query);
    if (!plain.ok() || !planned.ok()) continue;
    if (plan::FingerprintPlan(*plain) != plan::FingerprintPlan(*planned)) {
      ++changed;
    }
    train::QueryRecord record;
    record.env = &env;
    record.db_name = env.db->name();
    record.query = std::move(query);
    record.plan = std::move(*planned);
    record.opt_cost = record.plan.root->est_cost;
    records.push_back(std::move(record));
  }
  EXPECT_GT(changed, 0u) << "no hypothetical index changed a plan";
  return records;
}

TEST_F(ModelsTest, TensorFreePassMatchesAutodiffBitForBit) {
  // Plan sources: the IMDB fixture, two corpus databases, a generated
  // database with a wider schema band, and what-if plans.
  std::vector<PlanSet> sets;
  // Moving an inner vector keeps its buffer, so the views stay valid.
  std::vector<std::vector<train::QueryRecord>> owned;
  auto add_set = [&](const std::string& name,
                     std::vector<train::QueryRecord> records, bool executed) {
    owned.push_back(std::move(records));
    sets.push_back(PlanSet{name, train::MakeView(owned.back()), executed});
  };
  sets.push_back(PlanSet{"imdb", train::MakeView(*records_), true});
  std::vector<datagen::DatabaseEnv> corpus =
      datagen::MakeTrainingCorpus(11, 2, 0.05);
  for (const datagen::DatabaseEnv& env : corpus) {
    add_set(env.db->name(),
            train::CollectRandomWorkload(
                env, workload::TrainingWorkloadConfig(), 40, 5,
                train::CollectOptions()),
            true);
  }
  datagen::GeneratorConfig wide;
  wide.min_tables = 6;
  wide.max_tables = 9;
  wide.max_attr_columns = 8;
  wide.scale = 0.05;
  datagen::DatabaseEnv generated =
      datagen::MakeEnv(datagen::GenerateRandomDatabase("wide", 23, wide));
  Rng index_rng(23);
  datagen::AddDefaultIndexes(generated.db.get(), &index_rng, 0.3);
  generated.RefreshStats();
  add_set("generated",
          train::CollectRandomWorkload(
              generated, workload::TrainingWorkloadConfig(), 40, 6,
              train::CollectOptions()),
          true);
  add_set("what-if imdb", WhatIfPlans(*env_), false);

  struct Case {
    std::string name;
    std::unique_ptr<TreeMessagePassingModel> model;
    bool executed_plans_only = false;  // exact cardinalities
  };
  std::vector<Case> cases;
  auto zero_shot = [](featurize::CardinalityMode mode, size_t hidden) {
    ZeroShotCostModel::Options options;
    options.cardinality_mode = mode;
    options.hidden_dim = hidden;
    return std::make_unique<ZeroShotCostModel>(options);
  };
  cases.push_back({"zero-shot estimated",
                   zero_shot(featurize::CardinalityMode::kEstimated, 64)});
  cases.push_back({"zero-shot exact",
                   zero_shot(featurize::CardinalityMode::kExact, 64), true});
  // Off the kernel's 64-wide register path, with vector remainders.
  cases.push_back({"zero-shot estimated hidden 20",
                   zero_shot(featurize::CardinalityMode::kEstimated, 20)});
  cases.push_back(
      {"e2e", std::make_unique<E2ECostModel>(E2ECostModel::Options())});

  const std::vector<size_t> batch_sizes = {1, 2, 3, 7, 16, 33, 64};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    TreeMessagePassingModel* model = c.model.get();
    train::TrainerOptions trainer;
    trainer.max_epochs = 2;
    train::TrainModel(model, train::MakeView(*records_), trainer);
    Rng rng(7);

    // Each source's featurized plans, plus a set of wide synthetic graphs.
    std::vector<std::pair<std::string, std::vector<featurize::PlanGraph>>>
        graph_sets;
    for (const PlanSet& set : sets) {
      if (c.executed_plans_only && !set.executed) continue;
      const std::vector<const QueryRecord*>& view = set.records;
      graph_sets.emplace_back(set.name,
                              TreeModelTestPeer::Featurize(*model, view));

      // ForwardBatch (the serving entry point) against the autodiff pass.
      std::vector<const featurize::PlanGraph*> pointers;
      for (const auto& graph : graph_sets.back().second) {
        pointers.push_back(&graph);
      }
      const std::vector<float> reference =
          TreeModelTestPeer::Autodiff(model, pointers);
      const std::vector<Millis> served = model->ForwardBatch(view);
      ASSERT_EQ(served.size(), reference.size());
      for (size_t i = 0; i < served.size(); ++i) {
        ASSERT_TRUE(SameBits(
            served[i].value(),
            TreeModelTestPeer::Denormalize(*model, reference[i]).value()))
            << set.name << " plan " << i << ": " << served[i].value();
      }
    }
    std::vector<featurize::PlanGraph> wide_graphs;
    for (int g = 0; g < 40; ++g) {
      wide_graphs.push_back(RandomWideGraph(&rng, model->config().feature_dim,
                                            model->config().num_encoders));
    }
    graph_sets.emplace_back("wide synthetic", std::move(wide_graphs));

    for (const auto& [set_name, graphs] : graph_sets) {
      ASSERT_FALSE(graphs.empty()) << set_name;
      std::vector<float> tensor_free;
      for (const featurize::PlanGraph& graph : graphs) {
        tensor_free.push_back(TreeModelTestPeer::TensorFree(model, graph));
      }
      // The autodiff pass batches plans together; every batch size must
      // give each plan the same bits the per-plan pass does.
      for (size_t batch : batch_sizes) {
        for (size_t begin = 0; begin < graphs.size(); begin += batch) {
          std::vector<const featurize::PlanGraph*> chunk;
          for (size_t i = begin; i < std::min(begin + batch, graphs.size());
               ++i) {
            chunk.push_back(&graphs[i]);
          }
          const std::vector<float> recorded =
              TreeModelTestPeer::Autodiff(model, chunk);
          ASSERT_EQ(recorded.size(), chunk.size());
          for (size_t i = 0; i < chunk.size(); ++i) {
            ASSERT_TRUE(SameBits(tensor_free[begin + i], recorded[i]))
                << set_name << " batch " << batch << " plan " << begin + i
                << ": " << tensor_free[begin + i] << " vs " << recorded[i];
          }
        }
      }
    }

    // Warmed up, a serving call builds no autodiff node at all.
    auto view = train::MakeView(*records_);
    model->ForwardBatch(view);
    const uint64_t heap_nodes = nn::GlobalAllocCounters().heap_nodes;
    model->ForwardBatch(view);
    EXPECT_EQ(nn::GlobalAllocCounters().heap_nodes, heap_nodes);
  }
}

}  // namespace
}  // namespace zerodb::models
