#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <string>

#include "datagen/corpus.h"
#include "gradient_check.h"
#include "models/e2e_model.h"
#include "models/mscn_model.h"
#include "models/scaled_cost_model.h"
#include "models/zeroshot_model.h"
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

// A model whose scratch last held a larger batch computes what a
// fresh model does, bit for bit: the scaled loss, every gradient, the
// validation loss and the predictions.
TEST_F(ModelsTest, WarmScratchMatchesFreshModelBitForBit) {
  const std::vector<const QueryRecord*> view = train::MakeView(*records_);
  for (auto& [name, fresh] : NeuralModels(32)) {
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

// Every model's hand-written backward against central differences of its
// loss, a few entries sampled from each parameter: the zero-shot and E2E
// tree passes and MSCN's set pooling.
TEST_F(ModelsTest, AccumulateGradientsMatchCentralDifferences) {
  const std::vector<const QueryRecord*> view = train::MakeView(*records_);
  const std::vector<const QueryRecord*> batch(view.begin(), view.begin() + 12);
  for (auto& [name, model] : NeuralModels(8)) {
    SCOPED_TRACE(name);
    model->Prepare(view);
    std::vector<nn::Tensor> params = model->Parameters();
    for (nn::Tensor& p : params) p.ZeroGrad();
    model->AccumulateGradients(batch, 1.0f);
    auto loss = [&, m = model.get()]() { return m->LossOnBatch(batch); };
    for (size_t p = 0; p < params.size(); ++p) {
      const std::vector<float> analytic = params[p].grad();
      gradcheck::ExpectCentralDifferences(
          params[p].mutable_data(), analytic, loss,
          "parameter " + std::to_string(p), params[p].size() / 4 + 1);
    }
  }
}

}  // namespace
}  // namespace zerodb::models
