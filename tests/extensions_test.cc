// Tests for the roadmap extensions: ensemble uncertainty (paper Section
// 2.2), zero-shot plan selection (Section 4.2), and model persistence.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "datagen/corpus.h"
#include "common/rng.h"
#include "models/scaled_cost_model.h"
#include "nn/serialize.h"
#include "train/metrics.h"
#include "train/trainer.h"
#include "workload/benchmarks.h"
#include "zeroshot/ensemble.h"
#include "zeroshot/estimator.h"
#include "zeroshot/plan_selection.h"

namespace zerodb::zeroshot {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<datagen::DatabaseEnv>(
        datagen::MakeTrainingCorpus(42, 5, 0.1));
    imdb_ = new datagen::DatabaseEnv(datagen::MakeImdbEnv(7, 0.1));
    ZeroShotConfig config;
    config.queries_per_database = 120;
    config.trainer.max_epochs = 20;
    records_ = new std::vector<train::QueryRecord>(
        CollectCorpusRecords(*corpus_, config));
    estimator_ = new ZeroShotEstimator(ZeroShotEstimator::TrainFromRecords(
        CloneRecords(*records_), config));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    delete records_;
    delete imdb_;
    delete corpus_;
  }

  static std::vector<train::QueryRecord> CloneRecords(
      const std::vector<train::QueryRecord>& records) {
    std::vector<train::QueryRecord> copies;
    for (const train::QueryRecord& record : records) {
      train::QueryRecord copy;
      copy.env = record.env;
      copy.db_name = record.db_name;
      copy.query = record.query;
      copy.plan = record.plan.Clone();
      copy.runtime_ms = record.runtime_ms;
      copy.opt_cost = record.opt_cost;
      copies.push_back(std::move(copy));
    }
    return copies;
  }

  static std::vector<datagen::DatabaseEnv>* corpus_;
  static datagen::DatabaseEnv* imdb_;
  static std::vector<train::QueryRecord>* records_;
  static ZeroShotEstimator* estimator_;
};

std::vector<datagen::DatabaseEnv>* ExtensionsTest::corpus_ = nullptr;
datagen::DatabaseEnv* ExtensionsTest::imdb_ = nullptr;
std::vector<train::QueryRecord>* ExtensionsTest::records_ = nullptr;
ZeroShotEstimator* ExtensionsTest::estimator_ = nullptr;

TEST_F(ExtensionsTest, EnsemblePredictsWithSpread) {
  EnsembleConfig config;
  config.ensemble_size = 3;
  config.base.trainer.max_epochs = 10;
  EnsembleEstimator ensemble =
      EnsembleEstimator::TrainFromRecords(CloneRecords(*records_), config);
  EXPECT_EQ(ensemble.size(), 3u);

  auto queries = workload::MakeBenchmark(
      workload::BenchmarkWorkload::kSynthetic, *imdb_, 40, 5);
  auto eval = train::CollectRecords(*imdb_, queries, train::CollectOptions());
  auto predictions = ensemble.Predict(train::MakeView(eval));
  ASSERT_EQ(predictions.size(), eval.size());
  for (const UncertainPrediction& prediction : predictions) {
    EXPECT_GT(prediction.runtime_ms.value(), 0.0);
    EXPECT_GE(prediction.spread_factor, 1.0);
    EXPECT_LE(prediction.low_ms.value(), prediction.runtime_ms.value() + 1e-9);
    EXPECT_GE(prediction.high_ms.value(), prediction.runtime_ms.value() - 1e-9);
    EXPECT_EQ(prediction.uncertain,
              prediction.spread_factor > config.uncertainty_threshold);
  }
}

TEST_F(ExtensionsTest, EnsembleMoreUncertainOffDistribution) {
  EnsembleConfig config;
  config.ensemble_size = 3;
  config.base.trainer.max_epochs = 10;
  EnsembleEstimator ensemble =
      EnsembleEstimator::TrainFromRecords(CloneRecords(*records_), config);

  // In-distribution: evaluation on the training records themselves.
  std::vector<const train::QueryRecord*> in_dist;
  for (size_t i = 0; i < 40; ++i) in_dist.push_back(&(*records_)[i]);
  auto in_predictions = ensemble.Predict(in_dist);

  // Off-distribution: corrupt the plans' cardinality annotations wildly.
  auto corrupted = CloneRecords(*records_);
  corrupted.resize(40);
  Rng rng(9);
  for (auto& record : corrupted) {
    record.plan.root->VisitMutable([&](plan::PhysicalNode& node) {
      node.est_cardinality *= rng.LogNormal(0.0, 4.0);
    });
  }
  auto off_predictions = ensemble.Predict(train::MakeView(corrupted));

  double in_spread = 0.0;
  double off_spread = 0.0;
  for (const auto& p : in_predictions) in_spread += p.spread_factor;
  for (const auto& p : off_predictions) off_spread += p.spread_factor;
  EXPECT_GT(off_spread / off_predictions.size(),
            in_spread / in_predictions.size());
}

TEST_F(ExtensionsTest, FallbackKicksInWhenUncertain) {
  EnsembleConfig config;
  config.ensemble_size = 3;
  config.base.trainer.max_epochs = 10;
  config.uncertainty_threshold = 1.0;  // everything is "uncertain"
  EnsembleEstimator ensemble =
      EnsembleEstimator::TrainFromRecords(CloneRecords(*records_), config);
  models::ScaledOptCostModel fallback;
  fallback.Fit(train::MakeView(*records_));
  std::vector<const train::QueryRecord*> view;
  for (size_t i = 0; i < 20; ++i) view.push_back(&(*records_)[i]);
  size_t num_fallbacks = 0;
  auto predictions = ensemble.PredictWithFallback(view, &fallback,
                                                  &num_fallbacks);
  EXPECT_EQ(predictions.size(), 20u);
  EXPECT_GT(num_fallbacks, 15u);  // threshold 1.0 => almost all fall back
  auto fallback_only = fallback.PredictMs(view);
  for (size_t i = 0; i < view.size(); ++i) {
    if (num_fallbacks == 20) {
      EXPECT_DOUBLE_EQ(predictions[i].value(), fallback_only[i].value());
    }
  }
}

TEST_F(ExtensionsTest, CandidatePlansAreDistinct) {
  ASSERT_TRUE(imdb_->db->CreateIndex("cast_info", "movie_id").ok());
  imdb_->RefreshStats();
  size_t year_col = *imdb_->db->FindTable("title")->schema().FindColumn(
      "production_year");
  plan::QuerySpec query;
  query.tables = {"title", "cast_info"};
  query.joins = {plan::JoinSpec{"cast_info", "movie_id", "title", "id"}};
  query.filters = {plan::FilterSpec{
      "title", plan::Predicate::Compare(year_col, plan::CompareOp::kEq, 2015)}};
  query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  auto candidates = EnumerateCandidatePlans(*imdb_, query);
  EXPECT_GE(candidates.size(), 2u);  // index and no-index shapes differ
  for (size_t a = 0; a < candidates.size(); ++a) {
    for (size_t b = a + 1; b < candidates.size(); ++b) {
      EXPECT_NE(candidates[a].root->ToString(*imdb_->db),
                candidates[b].root->ToString(*imdb_->db));
    }
  }
  imdb_->db->DropAllIndexes();
  imdb_->RefreshStats();
}

TEST_F(ExtensionsTest, ModelChoosesAPlan) {
  workload::QueryGenerator generator(
      imdb_, workload::TrainingWorkloadConfig(), 23);
  int chosen = 0;
  for (int i = 0; i < 10; ++i) {
    auto choice = ChoosePlanWithModel(estimator_, *imdb_, generator.Next());
    ASSERT_TRUE(choice.ok()) << choice.status().ToString();
    EXPECT_GT(choice->predicted_ms.value(), 0.0);
    EXPECT_GE(choice->num_candidates, 1u);
    EXPECT_LT(choice->candidate_index, choice->num_candidates);
    ++chosen;
  }
  EXPECT_EQ(chosen, 10);
}

TEST_F(ExtensionsTest, SaveLoadRoundTripsPredictions) {
  std::string path = testing::TempDir() + "/zdb_model.bin";
  ASSERT_TRUE(estimator_->model().SaveWeights(path).ok());

  models::ZeroShotCostModel::Options options;  // same defaults as config
  models::ZeroShotCostModel restored(options);
  ASSERT_TRUE(restored.LoadWeights(path).ok());

  std::vector<const train::QueryRecord*> view;
  for (size_t i = 0; i < 20; ++i) view.push_back(&(*records_)[i]);
  auto original = estimator_->model().PredictMs(view);
  auto roundtrip = restored.PredictMs(view);
  ASSERT_EQ(original.size(), roundtrip.size());
  for (size_t i = 0; i < original.size(); ++i) {
    // Normalization statistics are persisted as float32, so round-tripped
    // predictions agree to float precision, not bit-exactly.
    EXPECT_NEAR(original[i].value(), roundtrip[i].value(),
                1e-5 * (1.0 + original[i].value()));
  }
  std::remove(path.c_str());
}

TEST_F(ExtensionsTest, TruncatedWeightFileLeavesModelUnchanged) {
  // Two tiny models trained from different initializations: `source`
  // provides the weight file, `target` receives every truncated prefix of
  // it, seeded bit flips and planted bad values. A load that half-applied
  // would move target's predictions toward source's, so bitwise-equal
  // probes after each failed load prove the load is all or nothing. Tiny
  // keeps the file (and the number of prefixes) small.
  std::vector<const train::QueryRecord*> training;
  for (size_t i = 0; i < 64; ++i) training.push_back(&(*records_)[i]);
  train::TrainerOptions trainer;
  trainer.max_epochs = 2;
  auto make_trained = [&](uint64_t init_seed) {
    models::ZeroShotCostModel::Options options;
    options.hidden_dim = 4;
    options.init_seed = init_seed;
    auto model = std::make_unique<models::ZeroShotCostModel>(options);
    train::TrainModel(model.get(), training, trainer);
    return model;
  };
  std::unique_ptr<models::ZeroShotCostModel> source = make_trained(1);
  std::unique_ptr<models::ZeroShotCostModel> target = make_trained(2);

  const std::string path = testing::TempDir() + "/zdb_truncated.bin";
  ASSERT_TRUE(source->SaveWeights(path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);

  auto write_file = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };
  std::vector<const train::QueryRecord*> probes(training.begin(),
                                                training.begin() + 8);
  const std::vector<Millis> before = target->PredictMs(probes);
  // `reason`, when set, must appear in the rejection's message.
  auto expect_rejected = [&](const std::string& content,
                             const char* reason = nullptr) {
    write_file(content);
    const Status status = target->LoadWeights(path);
    ASSERT_FALSE(status.ok()) << content.size() << " bytes";
    if (reason != nullptr) {
      ASSERT_NE(status.ToString().find(reason), std::string::npos)
          << status.ToString();
    }
    const std::vector<Millis> after = target->PredictMs(probes);
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(after[i].value()),
                std::bit_cast<uint64_t>(before[i].value()))
          << content.size() << " bytes, probe " << i;
    }
  };
  for (size_t length = 0; length < bytes.size(); ++length) {
    ASSERT_NO_FATAL_FAILURE(
        expect_rejected(bytes.substr(0, length), "truncated"));
  }
  ASSERT_NO_FATAL_FAILURE(expect_rejected(bytes + '\0', "trailing bytes"));

  // The layout: the magic, the section count and one float count per
  // section, then the sections (parameter block, feature mean, feature std,
  // target (mean, std)) and the trailing checksum.
  uint64_t sections = 0;
  std::memcpy(&sections, bytes.data() + 8, sizeof(sections));
  ASSERT_EQ(sections, 4u);
  const size_t header = 16 + sections * sizeof(uint64_t);
  std::vector<size_t> section_offsets;
  for (size_t i = 0, offset = header; i < sections; ++i) {
    uint64_t floats = 0;
    std::memcpy(&floats, bytes.data() + 16 + i * sizeof(uint64_t),
                sizeof(floats));
    section_offsets.push_back(offset);
    offset += floats * sizeof(float);
  }
  const size_t checksum_offset = bytes.size() - sizeof(uint64_t);

  // Seeded single-bit flips: half anywhere in the file, half in the header
  // or the checksum, where a flip is least likely to land by chance.
  Rng rng(2024);
  for (size_t flip = 0; flip < 128; ++flip) {
    const bool framing = flip % 2 == 1;
    const size_t span = framing ? header + sizeof(uint64_t) : bytes.size();
    size_t byte = static_cast<size_t>(rng.NextUint64(span));
    if (framing && byte >= header) byte = checksum_offset + (byte - header);
    const int bit = static_cast<int>(rng.NextUint64(8));
    std::string flipped = bytes;
    flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
    SCOPED_TRACE(testing::Message() << "flip of bit " << bit << " in byte "
                                    << byte << " of " << bytes.size());
    ASSERT_NO_FATAL_FAILURE(expect_rejected(flipped));
  }

  // Well-formed files with a bad value: the checksum is recomputed after
  // planting it, so the load gets past the checksum to the value checks.
  auto with_float = [&](size_t offset, float value) {
    std::string content = bytes;
    std::memcpy(content.data() + offset, &value, sizeof(value));
    const uint64_t checksum =
        nn::WeightFileChecksum({content.data(), checksum_offset});
    std::memcpy(content.data() + checksum_offset, &checksum,
                sizeof(checksum));
    return content;
  };
  const size_t weight = section_offsets.front();
  const size_t feature_std = section_offsets[2];
  ASSERT_NO_FATAL_FAILURE(expect_rejected(
      with_float(weight, std::numeric_limits<float>::quiet_NaN()),
      "non-finite"));
  ASSERT_NO_FATAL_FAILURE(expect_rejected(
      with_float(weight, std::numeric_limits<float>::infinity()),
      "non-finite"));
  ASSERT_NO_FATAL_FAILURE(expect_rejected(with_float(feature_std, 0.0f),
                                          "non-positive feature std"));

  // The exact file still loads, and does move the predictions.
  write_file(bytes);
  ASSERT_TRUE(target->LoadWeights(path).ok());
  EXPECT_NE(target->PredictMs(probes)[0].value(), before[0].value());
  std::remove(path.c_str());
}

TEST_F(ExtensionsTest, SaveUntrainedModelRejected) {
  models::ZeroShotCostModel::Options options;
  models::ZeroShotCostModel untrained(options);
  EXPECT_FALSE(untrained.SaveWeights("/tmp/zdb_should_not_exist.bin").ok());
}

}  // namespace
}  // namespace zerodb::zeroshot
