#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "models/e2e_model.h"
#include "models/mscn_model.h"
#include "models/scaled_cost_model.h"
#include "models/zeroshot_model.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/validate.h"
#include "optimizer/optimizer.h"
#include "plan/fingerprint.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "train/trainer.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace zerodb::models {

// Reaches TreeMessagePassingModel's private pass (friend), and holds the
// graph-built reference the differential tests below compare it with.
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
  static std::vector<float> Targets(
      const TreeMessagePassingModel& model,
      const std::vector<const QueryRecord*>& records) {
    std::vector<float> targets;
    for (const QueryRecord* record : records) {
      targets.push_back(static_cast<float>(model.target_norm_.Normalize(
          Millis(record->runtime_ms).ToLog())));
    }
    return targets;
  }
  static std::vector<float> Forward(
      TreeMessagePassingModel* model,
      const std::vector<const featurize::PlanGraph*>& graphs) {
    const std::span<const float> predictions = model->Forward(graphs);
    return {predictions.begin(), predictions.end()};
  }
  static float GradientStep(
      TreeMessagePassingModel* model,
      const std::vector<const featurize::PlanGraph*>& graphs,
      const std::vector<float>& targets, float scale) {
    return model->GradientStep(graphs, targets, scale);
  }
  static Millis Denormalize(const TreeMessagePassingModel& model,
                            float normalized) {
    return Millis::FromLog(model.target_norm_.Denormalize(normalized));
  }

  // The reference: the autodiff forward pass the tree models trained with
  // before their graph-free pass, kept verbatim (pooled buffers aside). It is
  // what nn::RowGather, RowScatterAdd and RowScatterAddTo remain for.
  static nn::Tensor ReferenceForward(
      TreeMessagePassingModel* model,
      const std::vector<const featurize::PlanGraph*>& graphs) {
    ZDB_CHECK(!graphs.empty());
    const size_t hidden = model->config_.hidden_dim;

    // Flatten all nodes into one global table — parallel arrays plus a CSR
    // children list instead of per-node vectors, so the flattening costs zero
    // allocations once the scratch capacities warm up.
    ReferenceScratch s;
    s.encoder_of.clear();
    s.level_of.clear();
    s.features_of.clear();
    s.children_flat.clear();
    s.child_offsets.clear();
    std::vector<uint32_t> root_ids = std::vector<uint32_t>(graphs.size());
    size_t max_level = 0;
    s.child_offsets.push_back(0);
    for (size_t g = 0; g < graphs.size(); ++g) {
      const featurize::PlanGraph& graph = *graphs[g];
      const uint32_t base = static_cast<uint32_t>(s.encoder_of.size());
      root_ids[g] = base + static_cast<uint32_t>(graph.root());
      for (const featurize::PlanGraphNode& node : graph.nodes) {
        s.encoder_of.push_back(
            static_cast<uint32_t>(model->EncoderIdFor(node.op_type)));
        s.level_of.push_back(static_cast<uint32_t>(node.level));
        s.features_of.push_back(&node.features);
        for (size_t child : node.children) {
          s.children_flat.push_back(base + static_cast<uint32_t>(child));
        }
        s.child_offsets.push_back(
            static_cast<uint32_t>(s.children_flat.size()));
        max_level = std::max(max_level, node.level);
      }
    }
    const size_t total_nodes = s.encoder_of.size();

    // Encode all nodes, grouped by encoder type, scattered back into a
    // (total_nodes, hidden) matrix.
    nn::Tensor encodings = nn::Tensor::Zeros(total_nodes, hidden);
    for (size_t e = 0; e < model->config_.num_encoders; ++e) {
      s.positions.clear();
      s.features.clear();
      for (size_t n = 0; n < total_nodes; ++n) {
        if (s.encoder_of[n] != e) continue;
        s.positions.push_back(static_cast<uint32_t>(n));
        s.features.insert(s.features.end(), s.features_of[n]->begin(),
                          s.features_of[n]->end());
      }
      if (s.positions.empty()) continue;
      std::vector<float> packed = std::vector<float>(s.features.size());
      std::copy(s.features.begin(), s.features.end(), packed.begin());
      nn::Tensor input = nn::Tensor::FromData(
          s.positions.size(), model->config_.feature_dim, std::move(packed));
      nn::Tensor encoded = model->encoders_[e].Forward(input);
      encodings = nn::RowScatterAddTo(encodings, encoded,
                                      s.positions);
    }

    // Bottom-up message passing by level. `hidden_states` accumulates each
    // level's rows at their global positions.
    nn::Tensor hidden_states = nn::Tensor::Zeros(total_nodes, hidden);
    for (size_t level = 0; level <= max_level; ++level) {
      s.level_ids.clear();
      s.child_ids.clear();
      s.child_parents.clear();  // local index within level
      for (size_t n = 0; n < total_nodes; ++n) {
        if (s.level_of[n] != level) continue;
        const uint32_t local = static_cast<uint32_t>(s.level_ids.size());
        s.level_ids.push_back(static_cast<uint32_t>(n));
        for (uint32_t c = s.child_offsets[n]; c < s.child_offsets[n + 1]; ++c) {
          s.child_ids.push_back(s.children_flat[c]);
          s.child_parents.push_back(local);
        }
      }
      if (s.level_ids.empty()) continue;

      nn::Tensor level_encodings =
          nn::RowGather(encodings, s.level_ids);
      nn::Tensor level_hidden;
      if (level == 0) {
        // Leaves: the initial hidden state is the node encoding.
        level_hidden = level_encodings;
      } else {
        // DeepSets: sum the children's hidden states, then combine with the
        // parent encoding through the combine MLP.
        nn::Tensor child_sum;
        if (s.child_ids.empty()) {
          child_sum = nn::Tensor::Zeros(s.level_ids.size(), hidden);
        } else {
          child_sum = nn::RowScatterAdd(
              nn::RowGather(hidden_states, s.child_ids),
              s.child_parents, s.level_ids.size());
        }
        level_hidden =
            model->combine_.Forward(nn::ConcatCols({level_encodings, child_sum}));
      }
      hidden_states = nn::RowScatterAddTo(hidden_states, level_hidden,
                                          s.level_ids);
    }

    // Root readout.
    nn::Tensor roots = nn::RowGather(hidden_states, std::move(root_ids));
    nn::Tensor predictions = model->readout_.Forward(roots);
    ZDB_DCHECK_OK(
        nn::ValidateShape(predictions, graphs.size(), 1, "tree model readout"));
    ZDB_DCHECK_OK(nn::ValidateFinite(predictions, "tree model readout"));
    return predictions;
  }

  // Forward + scaled Huber loss + Tensor::Backward on the reference graph,
  // as the trainer's shards ran it.
  static float ReferenceGradientStep(
      TreeMessagePassingModel* model,
      const std::vector<const featurize::PlanGraph*>& graphs,
      const std::vector<float>& targets, float scale) {
    nn::Tensor predictions = ReferenceForward(model, graphs);
    return nn::BackwardScaled(
        nn::HuberLoss(predictions,
                      nn::Tensor::FromData(targets.size(), 1, targets), 1.0f),
        scale);
  }

 private:
  struct ReferenceScratch {
    std::vector<uint32_t> encoder_of;
    std::vector<uint32_t> level_of;
    std::vector<const std::vector<float>*> features_of;
    std::vector<uint32_t> children_flat;
    std::vector<uint32_t> child_offsets;
    std::vector<uint32_t> positions;
    std::vector<float> features;
    std::vector<uint32_t> level_ids;
    std::vector<uint32_t> child_ids;
    std::vector<uint32_t> child_parents;
  };
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

// memcmp, not ==: -0.0f == +0.0f, and the pass must reproduce the sign the
// reference's zeroed scatter targets produce.
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

// The graph-free pass against the graph-built reference, bit for bit: the
// forward value of every plan at several batch sizes (and through
// ForwardBatch, the serving entry point), the validation loss, and for
// shards of 1-8 plans the scaled loss, every parameter gradient and the
// weights after one Adam step.
TEST_F(ModelsTest, TreePassMatchesGraphReferenceBitForBit) {
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
    const std::vector<nn::Tensor> params = model->Parameters();
    Rng rng(7);

    // Each source's featurized plans and normalized targets, plus a set of
    // wide synthetic graphs with random targets. Record sets keep their
    // records, so the public calls run on them.
    struct GraphSet {
      std::string name;
      std::vector<const QueryRecord*> records;  // empty for synthetic graphs
      std::vector<featurize::PlanGraph> graphs;
      std::vector<float> targets;
    };
    std::vector<GraphSet> graph_sets;
    for (const PlanSet& set : sets) {
      if (c.executed_plans_only && !set.executed) continue;
      graph_sets.push_back(
          {set.name, set.records,
           TreeModelTestPeer::Featurize(*model, set.records),
           TreeModelTestPeer::Targets(*model, set.records)});
    }
    GraphSet synthetic{"wide synthetic", {}, {}, {}};
    for (int g = 0; g < 40; ++g) {
      synthetic.graphs.push_back(RandomWideGraph(
          &rng, model->config().feature_dim, model->config().num_encoders));
      synthetic.targets.push_back(static_cast<float>(rng.Normal()));
    }
    graph_sets.push_back(std::move(synthetic));

    for (const GraphSet& set : graph_sets) {
      SCOPED_TRACE(set.name);
      ASSERT_FALSE(set.graphs.empty());
      std::vector<const featurize::PlanGraph*> pointers;
      for (const auto& graph : set.graphs) pointers.push_back(&graph);
      const nn::Tensor reference_tensor =
          TreeModelTestPeer::ReferenceForward(model, pointers);
      const std::vector<float> reference = reference_tensor.data();

      if (!set.records.empty()) {
        const std::vector<Millis> served = model->ForwardBatch(set.records);
        ASSERT_EQ(served.size(), reference.size());
        for (size_t i = 0; i < served.size(); ++i) {
          ASSERT_TRUE(SameBits(
              served[i].value(),
              TreeModelTestPeer::Denormalize(*model, reference[i]).value()))
              << "plan " << i << ": " << served[i].value();
        }
        EXPECT_TRUE(SameBits(
            model->LossOnBatch(set.records),
            nn::HuberLoss(reference_tensor,
                          nn::Tensor::FromData(set.targets.size(), 1,
                                               set.targets))
                .item()));
      }

      // The pass batches plans together; every batch size must give each
      // plan the reference's bits.
      for (size_t batch : batch_sizes) {
        for (size_t begin = 0; begin < pointers.size(); begin += batch) {
          const std::vector<const featurize::PlanGraph*> chunk(
              pointers.begin() + static_cast<ptrdiff_t>(begin),
              pointers.begin() + static_cast<ptrdiff_t>(
                                     std::min(begin + batch, pointers.size())));
          const std::vector<float> computed =
              TreeModelTestPeer::Forward(model, chunk);
          ASSERT_EQ(computed.size(), chunk.size());
          for (size_t i = 0; i < chunk.size(); ++i) {
            ASSERT_TRUE(SameBits(reference[begin + i], computed[i]))
                << "batch " << batch << " plan " << begin + i << ": "
                << reference[begin + i] << " vs " << computed[i];
          }
        }
      }

      // Gradients, shard by shard, scaled as the trainer scales a shard of
      // a 40-record batch. Record sets go through the public call.
      for (size_t shard = 1; shard <= 8; ++shard) {
        const float scale =
            static_cast<float>(shard) / static_cast<float>(40);
        for (size_t begin = 0; begin < pointers.size(); begin += shard) {
          const size_t end = std::min(begin + shard, pointers.size());
          SCOPED_TRACE(testing::Message() << "shard " << shard << " at "
                                          << begin);
          const std::vector<const featurize::PlanGraph*> graphs(
              pointers.begin() + static_cast<ptrdiff_t>(begin),
              pointers.begin() + static_cast<ptrdiff_t>(end));
          const std::vector<float> targets(
              set.targets.begin() + static_cast<ptrdiff_t>(begin),
              set.targets.begin() + static_cast<ptrdiff_t>(end));
          for (nn::Tensor p : params) p.ZeroGrad();
          const float reference_loss = TreeModelTestPeer::ReferenceGradientStep(
              model, graphs, targets, scale);
          std::vector<std::vector<float>> reference_grads;
          for (nn::Tensor p : params) {
            reference_grads.push_back(p.grad());
            p.ZeroGrad();
          }
          const float loss =
              set.records.empty()
                  ? TreeModelTestPeer::GradientStep(model, graphs, targets,
                                                    scale)
                  : model->AccumulateGradients(
                        std::vector<const QueryRecord*>(
                            set.records.begin() + static_cast<ptrdiff_t>(begin),
                            set.records.begin() + static_cast<ptrdiff_t>(end)),
                        scale);
          ASSERT_TRUE(SameBits(loss, reference_loss))
              << loss << " vs " << reference_loss;
          for (size_t p = 0; p < params.size(); ++p) {
            ASSERT_EQ(std::memcmp(params[p].grad().data(),
                                  reference_grads[p].data(),
                                  reference_grads[p].size() * sizeof(float)),
                      0)
                << "parameter " << p;
          }
          if (begin > 0) continue;
          // One Adam step from each side's gradients lands on the same
          // weights; the model's own weights are restored afterwards.
          std::vector<std::vector<float>> weights;
          for (const nn::Tensor& p : params) weights.push_back(p.data());
          std::vector<std::vector<std::vector<float>>> stepped;
          for (int side = 0; side < 2; ++side) {
            std::vector<nn::Tensor> copies;
            for (size_t p = 0; p < params.size(); ++p) {
              copies.push_back(nn::Tensor::Parameter(
                  params[p].rows(), params[p].cols(), weights[p]));
              copies.back().mutable_grad() =
                  side == 0 ? reference_grads[p] : params[p].grad();
            }
            nn::Adam adam(copies, 1e-3f, 0.9f, 0.999f, 1e-8f, 1e-5f);
            adam.Step();
            stepped.emplace_back();
            for (const nn::Tensor& p : copies) stepped.back().push_back(p.data());
          }
          for (size_t p = 0; p < params.size(); ++p) {
            ASSERT_EQ(std::memcmp(stepped[0][p].data(), stepped[1][p].data(),
                                  stepped[0][p].size() * sizeof(float)),
                      0)
                << "parameter " << p << " after Adam";
          }
        }
      }
    }
  }
}

// The three tree-model configurations the trainer builds.
std::vector<std::pair<std::string, std::unique_ptr<TreeMessagePassingModel>>>
TreeModels() {
  std::vector<std::pair<std::string, std::unique_ptr<TreeMessagePassingModel>>>
      models;
  for (featurize::CardinalityMode mode :
       {featurize::CardinalityMode::kEstimated,
        featurize::CardinalityMode::kExact}) {
    ZeroShotCostModel::Options options;
    options.cardinality_mode = mode;
    options.hidden_dim = 32;
    models.emplace_back(
        std::string("zero-shot ") + featurize::CardinalityModeName(mode),
        std::make_unique<ZeroShotCostModel>(options));
  }
  E2ECostModel::Options e2e;
  e2e.hidden_dim = 32;
  models.emplace_back("e2e", std::make_unique<E2ECostModel>(e2e));
  return models;
}

// Loss, gradient and serving calls on a prepared tree model create no
// autodiff node.
TEST_F(ModelsTest, TreeModelsBuildNoAutodiffGraph) {
  const std::vector<const QueryRecord*> view = train::MakeView(*records_);
  const std::vector<const QueryRecord*> shard(view.begin(), view.begin() + 8);
  for (auto& [name, model] : TreeModels()) {
    SCOPED_TRACE(name);
    model->Prepare(view);
    const uint64_t nodes = nn::NodesCreated();
    EXPECT_TRUE(std::isfinite(model->AccumulateGradients(shard, 0.2f)));
    EXPECT_TRUE(std::isfinite(model->LossOnBatch(view)));
    EXPECT_EQ(model->PredictMs(view).size(), view.size());
    EXPECT_EQ(model->ForwardBatch(shard).size(), shard.size());
    EXPECT_EQ(nn::NodesCreated(), nodes);
  }
}

// A model whose scratch last held a larger, deeper batch computes what a
// fresh model does, bit for bit: the scaled loss, every gradient, the
// validation loss and the predictions.
TEST_F(ModelsTest, WarmScratchMatchesFreshModelBitForBit) {
  const std::vector<const QueryRecord*> view = train::MakeView(*records_);
  for (auto& [name, fresh] : TreeModels()) {
    SCOPED_TRACE(name);
    fresh->Prepare(view);
    std::unique_ptr<NeuralCostModel> warm = fresh->CloneReplica();
    warm->AccumulateGradients(view, 1.0f);
    warm->LossOnBatch(view);
    warm->PredictMs(view);
    const std::vector<nn::Tensor> fresh_params = fresh->Parameters();
    const std::vector<nn::Tensor> warm_params = warm->Parameters();
    for (size_t begin : {size_t(0), size_t(37), size_t(101)}) {
      const std::vector<const QueryRecord*> shard(
          view.begin() + static_cast<ptrdiff_t>(begin),
          view.begin() + static_cast<ptrdiff_t>(begin + 5));
      for (nn::Tensor p : fresh_params) p.ZeroGrad();
      for (nn::Tensor p : warm_params) p.ZeroGrad();
      EXPECT_TRUE(SameBits(fresh->AccumulateGradients(shard, 0.125f),
                           warm->AccumulateGradients(shard, 0.125f)));
      for (size_t p = 0; p < fresh_params.size(); ++p) {
        ASSERT_EQ(std::memcmp(fresh_params[p].grad().data(),
                              warm_params[p].grad().data(),
                              fresh_params[p].size() * sizeof(float)),
                  0)
            << "parameter " << p;
      }
      EXPECT_TRUE(
          SameBits(fresh->LossOnBatch(shard), warm->LossOnBatch(shard)));
      const std::vector<Millis> fresh_ms = fresh->PredictMs(shard);
      const std::vector<Millis> warm_ms = warm->PredictMs(shard);
      for (size_t i = 0; i < shard.size(); ++i) {
        EXPECT_TRUE(SameBits(fresh_ms[i].value(), warm_ms[i].value()));
      }
    }
  }
}

}  // namespace
}  // namespace zerodb::models
