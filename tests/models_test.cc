#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "datagen/corpus.h"
#include "featurize/e2e_featurizer.h"
#include "featurize/mscn_featurizer.h"
#include "featurize/zeroshot_featurizer.h"
#include "gradient_check.h"
#include "models/e2e_model.h"
#include "models/mscn_model.h"
#include "models/scaled_cost_model.h"
#include "models/zeroshot_model.h"
#include "plan/physical.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "train/trainer.h"
#include "workload/benchmarks.h"

namespace zerodb::models {

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

// Floats in an MLP's weights and biases: (in + 1) * out per layer.
size_t MlpFloats(size_t in, const std::vector<size_t>& hidden, size_t out) {
  size_t floats = 0;
  for (size_t width : hidden) {
    floats += (in + 1) * width;
    in = width;
  }
  return floats + (in + 1) * out;
}

// Each model's block holds exactly its architecture's floats, with a
// gradient per value.
TEST_F(ModelsTest, ModelsExposeParameters) {
  const size_t h = 16;
  // Tree models: encoders (features -> h -> h -> h), then the combine
  // (2h -> h -> h -> h) and readout (h -> h -> h -> 1) MLPs.
  const size_t trunk = MlpFloats(2 * h, {h, h}, h) + MlpFloats(h, {h, h}, 1);
  ZeroShotCostModel::Options zs_options;
  zs_options.hidden_dim = h;
  ZeroShotCostModel zero_shot(zs_options);
  EXPECT_EQ(zero_shot.Parameters().size(),
            plan::kNumPhysicalOpTypes *
                    MlpFloats(featurize::ZeroShotFeaturizer::kFeatureDim,
                              {h, h}, h) +
                trunk);
  EXPECT_EQ(zero_shot.Parameters().grads.size(),
            zero_shot.Parameters().size());
  EXPECT_EQ(ZeroShotCostModel(ZeroShotCostModel::Options())
                .Parameters()
                .size(),
            111937u);  // the default hidden width, 64

  E2ECostModel::Options e2e_options;
  e2e_options.hidden_dim = h;
  E2ECostModel e2e(e2e_options);
  EXPECT_EQ(e2e.Parameters().size(),
            MlpFloats(featurize::E2EFeaturizer::kFeatureDim, {h, h}, h) +
                trunk);
  EXPECT_EQ(e2e.Parameters().grads.size(), e2e.Parameters().size());

  // MSCN: one encoder per set type (element -> h -> h), then the output
  // MLP (3h -> h -> 1).
  MscnCostModel::Options mscn_options;
  mscn_options.hidden_dim = h;
  MscnCostModel mscn(mscn_options);
  using featurize::MscnFeaturizer;
  EXPECT_EQ(mscn.Parameters().size(),
            MlpFloats(MscnFeaturizer::kTableDim, {h}, h) +
                MlpFloats(MscnFeaturizer::kJoinDim, {h}, h) +
                MlpFloats(MscnFeaturizer::kPredicateDim, {h}, h) +
                MlpFloats(3 * h, {h}, 1));
  EXPECT_EQ(mscn.Parameters().grads.size(), mscn.Parameters().size());
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

// MSCN validates and serves in passes of kPassChunk queries. Over 150+
// records (three passes) the predictions equal those of one query at a
// time, bit for bit: no row mixes queries.
TEST_F(ModelsTest, MscnChunkedPassesMatchOneQueryAtATime) {
  MscnCostModel::Options options;
  options.hidden_dim = 16;
  MscnCostModel model(options);
  const auto view = train::MakeView(*records_);
  ASSERT_GT(view.size(), 2 * kPassChunk);
  model.Prepare(view);
  const std::vector<Millis> chunked = model.PredictMs(view);
  ASSERT_EQ(chunked.size(), view.size());
  for (size_t i = 0; i < view.size(); ++i) {
    const std::vector<Millis> single = model.PredictMs({view[i]});
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(std::bit_cast<uint64_t>(single[0].value()),
              std::bit_cast<uint64_t>(chunked[i].value()))
        << "record " << i;
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

// memcmp, not ==: -0.0f == +0.0f.
template <typename T>
bool SameBits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// The four model configurations the trainer builds, at hidden width
// `hidden`: zero-shot in both cardinality modes, E2E and MSCN.
std::vector<std::pair<std::string, std::unique_ptr<NeuralCostModel>>>
NeuralModels(size_t hidden) {
  std::vector<std::pair<std::string, std::unique_ptr<NeuralCostModel>>> models;
  for (featurize::CardinalityMode mode :
       {featurize::CardinalityMode::kEstimated,
        featurize::CardinalityMode::kExact}) {
    ZeroShotCostModel::Options options;
    options.cardinality_mode = mode;
    options.hidden_dim = hidden;
    models.emplace_back(
        std::string("zero-shot ") + featurize::CardinalityModeName(mode),
        std::make_unique<ZeroShotCostModel>(options));
  }
  E2ECostModel::Options e2e;
  e2e.hidden_dim = hidden;
  models.emplace_back("e2e", std::make_unique<E2ECostModel>(e2e));
  MscnCostModel::Options mscn;
  mscn.hidden_dim = hidden;
  models.emplace_back("mscn", std::make_unique<MscnCostModel>(mscn));
  return models;
}

// Row ids 0, 1, ..., n - 1 of a training table.
std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

// A model whose scratch last held a larger batch computes what a
// fresh model does, bit for bit: the scaled loss, every gradient, the
// validation loss and the predictions.
TEST_F(ModelsTest, WarmScratchMatchesFreshModelBitForBit) {
  const std::vector<const QueryRecord*> view = train::MakeView(*records_);
  for (auto& [name, fresh] : NeuralModels(32)) {
    SCOPED_TRACE(name);
    fresh->Prepare(view);
    std::unique_ptr<NeuralCostModel> warm = fresh->CloneReplica();
    warm->AccumulateGradients(AllRows(view.size()), 1.0f);
    warm->LossOnBatch(view);
    warm->PredictMs(view);
    std::vector<float>& fresh_grads = fresh->MutableParameters()->grads;
    std::vector<float>& warm_grads = warm->MutableParameters()->grads;
    for (uint32_t begin : {0u, 37u, 101u}) {
      const std::vector<uint32_t> rows = {begin, begin + 1, begin + 2,
                                          begin + 3, begin + 4};
      const std::vector<const QueryRecord*> shard(
          view.begin() + static_cast<ptrdiff_t>(begin),
          view.begin() + static_cast<ptrdiff_t>(begin + 5));
      std::fill(fresh_grads.begin(), fresh_grads.end(), 0.0f);
      std::fill(warm_grads.begin(), warm_grads.end(), 0.0f);
      EXPECT_TRUE(SameBits(fresh->AccumulateGradients(rows, 0.125f),
                           warm->AccumulateGradients(rows, 0.125f)));
      ASSERT_EQ(fresh_grads.size(), warm_grads.size());
      ASSERT_EQ(std::memcmp(fresh_grads.data(), warm_grads.data(),
                            fresh_grads.size() * sizeof(float)),
                0);
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

// Every model's hand-written backward against central differences of its
// loss, at every float of its parameter block: the zero-shot and E2E tree
// passes and MSCN's set pooling.
TEST_F(ModelsTest, AccumulateGradientsMatchCentralDifferences) {
  const std::vector<const QueryRecord*> view = train::MakeView(*records_);
  const std::vector<const QueryRecord*> batch(view.begin(), view.begin() + 12);
  for (auto& [name, model] : NeuralModels(8)) {
    SCOPED_TRACE(name);
    model->Prepare(view);
    nn::ParameterBlock* params = model->MutableParameters();
    std::fill(params->grads.begin(), params->grads.end(), 0.0f);
    model->AccumulateGradients(AllRows(batch.size()), 1.0f);
    auto loss = [&, m = model.get()]() { return m->LossOnBatch(batch); };
    const std::vector<float> analytic = params->grads;
    gradcheck::ExpectCentralDifferences(params->values, analytic, loss,
                                        "parameter");
  }
}

// The training path reads rows Prepare featurized once; validation and
// serving featurize afresh, kPassChunk records per pass. Both give the
// same loss bit for bit (ScaledHuberLossBackward at scale 1 returns
// HuberLossValue): for one record, an 8-record shard, a permuted subset,
// and every record (more than one chunk).
TEST_F(ModelsTest, TablePathMatchesFreshFeaturizationBitForBit) {
  const std::vector<const QueryRecord*> view = train::MakeView(*records_);
  ASSERT_GT(view.size(), kPassChunk);
  std::vector<uint32_t> permuted = AllRows(view.size());
  Rng rng(29);
  rng.Shuffle(&permuted);
  permuted.resize(40);
  const std::vector<std::pair<std::string, std::vector<uint32_t>>> id_sets = {
      {"one", {17}},
      {"shard", {40, 41, 42, 43, 44, 45, 46, 47}},
      {"permuted", permuted},
      {"all", AllRows(view.size())},
  };
  for (auto& [name, model] : NeuralModels(16)) {
    SCOPED_TRACE(name);
    model->Prepare(view);
    for (const auto& [set_name, rows] : id_sets) {
      SCOPED_TRACE(set_name);
      std::vector<const QueryRecord*> batch;
      for (uint32_t row : rows) batch.push_back(view[row]);
      const float table_loss = model->AccumulateGradients(rows, 1.0f);
      const float fresh_loss = model->LossOnBatch(batch);
      EXPECT_TRUE(SameBits(table_loss, fresh_loss))
          << table_loss << " vs " << fresh_loss;
    }
  }
}

// A replica's block holds the source's values bit for bit, in storage of
// its own: overwriting the replica's weights leaves the source's
// predictions as they were.
TEST_F(ModelsTest, CloneReplicaOwnsAnIndependentBlock) {
  const std::vector<const QueryRecord*> view = train::MakeView(*records_);
  const std::vector<const QueryRecord*> probes(view.begin(), view.begin() + 8);
  for (auto& [name, source] : NeuralModels(8)) {
    SCOPED_TRACE(name);
    source->Prepare(view);
    std::unique_ptr<NeuralCostModel> replica = source->CloneReplica();
    const std::vector<float>& values = source->Parameters().values;
    std::vector<float>& replica_values = replica->MutableParameters()->values;
    ASSERT_EQ(replica_values.size(), values.size());
    EXPECT_NE(replica_values.data(), values.data());
    EXPECT_EQ(std::memcmp(replica_values.data(), values.data(),
                          values.size() * sizeof(float)),
              0);
    const std::vector<Millis> before = source->PredictMs(probes);
    const std::vector<Millis> replica_before = replica->PredictMs(probes);
    for (float& v : replica_values) v = -v;
    const std::vector<Millis> after = source->PredictMs(probes);
    const std::vector<Millis> replica_after = replica->PredictMs(probes);
    size_t replica_moved = 0;
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_TRUE(SameBits(replica_before[i].value(), before[i].value()));
      EXPECT_TRUE(SameBits(after[i].value(), before[i].value()));
      replica_moved += !SameBits(replica_after[i].value(), before[i].value());
    }
    EXPECT_GT(replica_moved, 0u);
  }
}

}  // namespace
}  // namespace zerodb::models
