#include <gtest/gtest.h>
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "datagen/corpus.h"
#include "obs/json.h"
#include "obs/trace_event.h"
#include "train/metrics.h"
#include "whatif/index_advisor.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"
#include "zeroshot/estimator.h"

namespace zerodb::zeroshot {
namespace {

// One corpus + trained estimator shared across the suite (training is the
// expensive part).
class ZeroShotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<datagen::DatabaseEnv>(
        datagen::MakeTrainingCorpus(42, 6, 0.12));
    imdb_ = new datagen::DatabaseEnv(datagen::MakeImdbEnv(7, 0.12));
    ZeroShotConfig config;
    config.queries_per_database = 150;
    config.trainer.max_epochs = 25;
    estimator_ = new ZeroShotEstimator(ZeroShotEstimator::Train(*corpus_, config));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    delete imdb_;
    delete corpus_;
    estimator_ = nullptr;
    imdb_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<datagen::DatabaseEnv>* corpus_;
  static datagen::DatabaseEnv* imdb_;
  static ZeroShotEstimator* estimator_;
};

std::vector<datagen::DatabaseEnv>* ZeroShotTest::corpus_ = nullptr;
datagen::DatabaseEnv* ZeroShotTest::imdb_ = nullptr;
ZeroShotEstimator* ZeroShotTest::estimator_ = nullptr;

TEST_F(ZeroShotTest, TrainingCollectedFromAllDatabases) {
  const auto& records = estimator_->training_records();
  ASSERT_FALSE(records.empty());
  std::set<std::string> db_names;
  for (const auto& record : records) db_names.insert(record.db_name);
  EXPECT_EQ(db_names.size(), corpus_->size());
  // The unseen database never appears in training.
  EXPECT_EQ(db_names.count("imdb"), 0u);
}

TEST_F(ZeroShotTest, GeneralizesToUnseenDatabase) {
  // The headline claim: accurate runtime prediction on a database the model
  // never saw, without executing a single training query on it.
  auto queries = workload::MakeBenchmark(workload::BenchmarkWorkload::kSynthetic,
                                         *imdb_, 100, 5);
  auto eval = train::CollectRecords(*imdb_, queries, train::CollectOptions());
  ASSERT_GE(eval.size(), 60u);
  auto predictions = estimator_->PredictMs(train::MakeView(eval));
  std::vector<double> truth;
  for (const auto& record : eval) truth.push_back(record.runtime_ms);
  train::QErrorStats stats = train::ComputeQErrors(predictions, truth);
  EXPECT_LT(stats.median, 1.8) << stats.ToString();
  EXPECT_LT(stats.p95, 15.0) << stats.ToString();
}

TEST_F(ZeroShotTest, EstimateQueryWithoutExecution) {
  workload::QueryGenerator generator(
      imdb_, workload::TrainingWorkloadConfig(), 17);
  for (int i = 0; i < 5; ++i) {
    auto ms = estimator_->EstimateQueryMs(*imdb_, generator.Next());
    ASSERT_TRUE(ms.ok());
    EXPECT_GT(ms->value(), 0.0);
    EXPECT_TRUE(std::isfinite(ms->value()));
  }
}

TEST_F(ZeroShotTest, WhatIfChangesPrediction) {
  // Build a selective single-table query; declaring a hypothetical index on
  // the filtered column must lower (or at least change) the prediction via
  // the changed plan.
  size_t votes_col =
      *imdb_->db->FindTable("title")->schema().FindColumn("votes");
  plan::QuerySpec query;
  query.tables = {"title"};
  query.filters = {plan::FilterSpec{
      "title", plan::Predicate::Compare(votes_col, plan::CompareOp::kEq,
                                        12345)}};
  query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};

  auto without = estimator_->EstimateQueryMs(*imdb_, query);
  ASSERT_TRUE(without.ok());

  optimizer::PlannerOptions with_index;
  with_index.hypothetical_indexes = {
      optimizer::HypotheticalIndex{"title", votes_col}};
  auto with = estimator_->EstimateQueryMs(*imdb_, query, with_index);
  ASSERT_TRUE(with.ok());
  EXPECT_LT(*with, *without);
}

TEST_F(ZeroShotTest, AdvisorRecommendsUsefulIndexes) {
  // Workload dominated by selective predicates on title.votes: the advisor
  // should discover that indexing helps, using only what-if predictions.
  size_t votes_col =
      *imdb_->db->FindTable("title")->schema().FindColumn("votes");
  std::vector<plan::QuerySpec> queries;
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    plan::QuerySpec query;
    query.tables = {"title"};
    query.filters = {plan::FilterSpec{
        "title",
        plan::Predicate::Compare(votes_col, plan::CompareOp::kEq,
                                 static_cast<double>(rng.UniformInt(1, 30000)))}};
    query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
    queries.push_back(query);
  }
  whatif::IndexAdvisor advisor(estimator_);
  auto candidates = advisor.EnumerateCandidates(*imdb_, queries);
  ASSERT_FALSE(candidates.empty());
  whatif::AdvisorResult result = advisor.Recommend(*imdb_, queries);
  ASSERT_FALSE(result.chosen.empty());
  EXPECT_EQ(result.chosen[0].table, "title");
  EXPECT_EQ(result.chosen[0].column, "votes");
  EXPECT_LT(result.final_total_ms, result.baseline_total_ms);
}

TEST_F(ZeroShotTest, AdvisorSkipsExistingIndexes) {
  size_t votes_col =
      *imdb_->db->FindTable("title")->schema().FindColumn("votes");
  plan::QuerySpec query;
  query.tables = {"title"};
  query.filters = {plan::FilterSpec{
      "title", plan::Predicate::Compare(votes_col, plan::CompareOp::kEq, 5.0)}};
  whatif::IndexAdvisor advisor(estimator_);
  ASSERT_TRUE(imdb_->db->CreateIndex("title", "votes").ok());
  auto candidates = advisor.EnumerateCandidates(*imdb_, {query});
  for (const auto& candidate : candidates) {
    EXPECT_FALSE(candidate.table == "title" && candidate.column == "votes");
  }
  imdb_->db->DropAllIndexes();
}

// Same (table, column_index) list, same totals to the bit.
void ExpectSameAdvice(const whatif::AdvisorResult& a,
                      const whatif::AdvisorResult& b) {
  ASSERT_EQ(a.chosen.size(), b.chosen.size());
  for (size_t i = 0; i < a.chosen.size(); ++i) {
    EXPECT_EQ(a.chosen[i].table, b.chosen[i].table) << "index " << i;
    EXPECT_EQ(a.chosen[i].column_index, b.chosen[i].column_index)
        << "index " << i;
  }
  EXPECT_EQ(a.baseline_total_ms.value(), b.baseline_total_ms.value());
  EXPECT_EQ(a.final_total_ms.value(), b.final_total_ms.value());
}

TEST_F(ZeroShotTest, AdvisorSkipsInvalidQueries) {
  // An unknown join column or an out-of-range filter slot must not crash
  // candidate enumeration: the planner rejects such queries, so they change
  // nothing about the advice.
  size_t votes_col =
      *imdb_->db->FindTable("title")->schema().FindColumn("votes");
  plan::QuerySpec valid;
  valid.tables = {"title"};
  valid.filters = {plan::FilterSpec{
      "title", plan::Predicate::Compare(votes_col, plan::CompareOp::kEq,
                                        12345)}};
  valid.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  plan::QuerySpec unknown_join_column;
  unknown_join_column.tables = {"title", "cast_info"};
  unknown_join_column.joins = {
      plan::JoinSpec{"cast_info", "no_such_column", "title", "id"}};
  plan::QuerySpec bad_slot;
  bad_slot.tables = {"title"};
  bad_slot.filters = {plan::FilterSpec{
      "title", plan::Predicate::Compare(999, plan::CompareOp::kEq, 1)}};

  whatif::IndexAdvisor advisor(estimator_);
  estimator_->InvalidatePredictionCache();
  whatif::AdvisorResult alone = advisor.Recommend(*imdb_, {valid});
  estimator_->InvalidatePredictionCache();
  whatif::AdvisorResult mixed =
      advisor.Recommend(*imdb_, {unknown_join_column, valid, bad_slot});
  ASSERT_FALSE(alone.chosen.empty());
  ExpectSameAdvice(mixed, alone);
  EXPECT_EQ(advisor.EnumerateCandidates(*imdb_, {unknown_join_column, valid,
                                                 bad_slot})
                .size(),
            advisor.EnumerateCandidates(*imdb_, {valid}).size());
}

TEST_F(ZeroShotTest, AdvisorMatchesRepriceEverything) {
  // Differential test of the advisor's per-(query, relevant index subset)
  // memo against the greedy it replaces, which re-prices the whole workload
  // for every trial index set. Same chosen indexes, totals equal to the bit.
  workload::WorkloadConfig config;  // perfbench's whatif-advise shape
  config.min_tables = 1;
  config.max_tables = 3;
  config.min_predicates = 1;
  config.max_predicates = 3;
  config.range_predicate_prob = 0.3;
  whatif::IndexAdvisor advisor(estimator_);
  const whatif::IndexAdvisorOptions options;

  size_t workloads_with_choices = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    workload::QueryGenerator generator(imdb_, config, seed);
    std::vector<plan::QuerySpec> workload;
    for (int i = 0; i < 12; ++i) workload.push_back(generator.Next());

    estimator_->InvalidatePredictionCache();
    whatif::AdvisorResult memoized = advisor.Recommend(*imdb_, workload);

    estimator_->InvalidatePredictionCache();
    auto price = [&](const std::vector<whatif::IndexCandidate>& indexes) {
      optimizer::PlannerOptions planner_options;
      for (const whatif::IndexCandidate& index : indexes) {
        planner_options.hypothetical_indexes.push_back(
            optimizer::HypotheticalIndex{index.table, index.column_index});
      }
      Millis total;
      for (const StatusOr<Millis>& ms : estimator_->EstimateQueryBatchMs(
               *imdb_, workload, planner_options)) {
        if (ms.ok()) total += *ms;
      }
      return total;
    };
    const double min_improvement = memoized.quality_degraded
                                       ? options.degraded_min_improvement
                                       : options.min_improvement;
    whatif::AdvisorResult reference;
    reference.baseline_total_ms = price({});
    Millis current = reference.baseline_total_ms;
    std::vector<whatif::IndexCandidate> remaining =
        advisor.EnumerateCandidates(*imdb_, workload);
    while (reference.chosen.size() < options.max_indexes &&
           !remaining.empty()) {
      Millis best_ms = current;
      size_t best_index = remaining.size();
      for (size_t c = 0; c < remaining.size(); ++c) {
        std::vector<whatif::IndexCandidate> trial = reference.chosen;
        trial.push_back(remaining[c]);
        Millis ms = price(trial);
        if (ms < best_ms) {
          best_ms = ms;
          best_index = c;
        }
      }
      if (best_index == remaining.size() ||
          current / std::max(best_ms, Millis(1e-9)) < min_improvement) {
        break;
      }
      reference.chosen.push_back(remaining[best_index]);
      remaining.erase(remaining.begin() + static_cast<long>(best_index));
      current = best_ms;
    }
    reference.final_total_ms = current;

    SCOPED_TRACE("workload seed " + std::to_string(seed));
    ExpectSameAdvice(memoized, reference);
    if (!reference.chosen.empty()) ++workloads_with_choices;
  }
  // The comparison must exercise the greedy rounds, not just the baseline.
  EXPECT_GT(workloads_with_choices, 10u);
}

TEST_F(ZeroShotTest, AdvisorTimelineEventCountsSkippedWork) {
  workload::QueryGenerator generator(
      imdb_, workload::TrainingWorkloadConfig(), 37);
  std::vector<plan::QuerySpec> workload;
  for (int i = 0; i < 12; ++i) workload.push_back(generator.Next());
  whatif::IndexAdvisor advisor(estimator_);
  obs::TraceEventRecorder* recorder = obs::TraceEventRecorder::InstallGlobal();
  recorder->set_enabled(true);
  whatif::AdvisorResult result = advisor.Recommend(*imdb_, workload);
  recorder->set_enabled(false);
  EXPECT_LE(result.final_total_ms, result.baseline_total_ms);

  const obs::JsonValue trace = recorder->ToJson();
  const obs::JsonValue* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  const obs::JsonValue* args = nullptr;
  for (size_t i = 0; i < events->size(); ++i) {
    if (events->at(i).Find("name")->AsString() == "whatif.recommend") {
      ASSERT_EQ(args, nullptr) << "one event per Recommend call";
      args = events->at(i).Find("args");
    }
  }
  ASSERT_NE(args, nullptr);
  const double trial_sets = args->Find("trial_sets")->AsDouble();
  const double planned = args->Find("queries_planned")->AsDouble();
  const double memo_hits = args->Find("memo_hits")->AsDouble();
  EXPECT_EQ(args->Find("candidates")->AsDouble(),
            static_cast<double>(
                advisor.EnumerateCandidates(*imdb_, workload).size()));
  EXPECT_GT(trial_sets, 1.0);
  EXPECT_EQ(planned + memo_hits, trial_sets * 12.0);
  EXPECT_GT(memo_hits, planned);
}

TEST_F(ZeroShotTest, ExactModeRejectsEstimateQuery) {
  ZeroShotConfig config;
  config.queries_per_database = 40;
  config.trainer.max_epochs = 2;
  config.model.cardinality_mode = featurize::CardinalityMode::kExact;
  std::vector<datagen::DatabaseEnv> tiny_corpus =
      datagen::MakeTrainingCorpus(5, 2, 0.05);
  ZeroShotEstimator exact = ZeroShotEstimator::Train(tiny_corpus, config);
  workload::QueryGenerator generator(
      imdb_, workload::TrainingWorkloadConfig(), 21);
  auto result = exact.EstimateQueryMs(*imdb_, generator.Next());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Guard for the prediction cache's model-generation key: a LoadWeights
// through model() must change the next estimate without any explicit
// InvalidatePredictionCache() call, and loading the original weights back
// must restore it. Two small estimators, so the suite's shared one keeps
// its weights.
TEST_F(ZeroShotTest, LoadWeightsThroughModelChangesEstimate) {
  ZeroShotConfig config;
  config.queries_per_database = 40;
  config.trainer.max_epochs = 2;
  std::vector<datagen::DatabaseEnv> tiny_corpus =
      datagen::MakeTrainingCorpus(5, 2, 0.05);
  ZeroShotEstimator served = ZeroShotEstimator::Train(tiny_corpus, config);
  config.seed = 8;
  ZeroShotEstimator other = ZeroShotEstimator::Train(tiny_corpus, config);
  const std::string served_path =
      testing::TempDir() + "/zdb_generation_served.bin";
  const std::string other_path =
      testing::TempDir() + "/zdb_generation_other.bin";
  ASSERT_TRUE(served.model().SaveWeights(served_path).ok());
  ASSERT_TRUE(other.model().SaveWeights(other_path).ok());

  workload::QueryGenerator generator(
      imdb_, workload::TrainingWorkloadConfig(), 23);
  const plan::QuerySpec query = generator.Next();
  auto original = served.EstimateQueryMs(*imdb_, query);
  auto expected_other = other.EstimateQueryMs(*imdb_, query);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(expected_other.ok());
  ASSERT_GT(std::abs(original->value() - expected_other->value()),
            1e-3 * original->value());
  // Cached now: a repeat is a hit.
  const int64_t hits = served.predict_cache()->hits();
  ASSERT_EQ(served.EstimateQueryMs(*imdb_, query)->value(), original->value());
  ASSERT_EQ(served.predict_cache()->hits(), hits + 1);

  // The weight file stores the target normalization as floats, so a loaded
  // model matches its source to float precision, not bit for bit; the two
  // models' estimates differ far more than that.
  ASSERT_TRUE(served.model().LoadWeights(other_path).ok());
  auto swapped = served.EstimateQueryMs(*imdb_, query);
  ASSERT_TRUE(swapped.ok());
  EXPECT_NEAR(swapped->value(), expected_other->value(),
              1e-5 * expected_other->value());

  ASSERT_TRUE(served.model().LoadWeights(served_path).ok());
  auto restored = served.EstimateQueryMs(*imdb_, query);
  ASSERT_TRUE(restored.ok());
  EXPECT_NEAR(restored->value(), original->value(), 1e-5 * original->value());
}

TEST_F(ZeroShotTest, BatchedForwardMatchesSerial) {
  // Pricing a workload in one ForwardBatch call and pricing each record
  // alone must agree bit for bit: the serving pass computes every plan on
  // its own, so batch composition cannot reach a prediction.
  auto queries = workload::MakeBenchmark(workload::BenchmarkWorkload::kSynthetic,
                                         *imdb_, 100, 9);
  auto eval = train::CollectRecords(*imdb_, queries, train::CollectOptions());
  ASSERT_GE(eval.size(), 60u);
  auto view = train::MakeView(eval);
  auto batched = estimator_->model().ForwardBatch(view);
  ASSERT_EQ(batched.size(), view.size());
  for (size_t i = 0; i < view.size(); ++i) {
    auto serial = estimator_->model().ForwardBatch({view[i]});
    ASSERT_EQ(serial.size(), 1u);
    EXPECT_EQ(std::bit_cast<uint64_t>(batched[i].value()),
              std::bit_cast<uint64_t>(serial[0].value()))
        << "record " << i << ": " << batched[i].value() << " vs "
        << serial[0].value();
  }
}

TEST_F(ZeroShotTest, PredictionCacheHitsAndInvalidation) {
  const PredictCache* cache = estimator_->predict_cache();
  ASSERT_NE(cache, nullptr);
  workload::QueryGenerator generator(
      imdb_, workload::TrainingWorkloadConfig(), 29);
  plan::QuerySpec query = generator.Next();

  // Counters are cumulative across the shared fixture, so assert on deltas.
  auto first = estimator_->EstimateQueryMs(*imdb_, query);
  ASSERT_TRUE(first.ok());
  const int64_t hits_before = cache->hits();
  auto second = estimator_->EstimateQueryMs(*imdb_, query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache->hits(), hits_before + 1);
  EXPECT_DOUBLE_EQ(second->value(), first->value());

  const int64_t invalidations_before = cache->invalidations();
  estimator_->InvalidatePredictionCache();
  EXPECT_EQ(cache->invalidations(), invalidations_before + 1);
  EXPECT_EQ(cache->size(), 0u);

  // After invalidation the same query misses, recomputes, and lands on the
  // same value (the weights have not changed).
  const int64_t misses_before = cache->misses();
  auto third = estimator_->EstimateQueryMs(*imdb_, query);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cache->misses(), misses_before + 1);
  EXPECT_DOUBLE_EQ(third->value(), first->value());
}

TEST_F(ZeroShotTest, BatchEstimateMatchesSerialEstimate) {
  workload::QueryGenerator generator(
      imdb_, workload::TrainingWorkloadConfig(), 31);
  std::vector<plan::QuerySpec> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(generator.Next());
  auto batch = estimator_->EstimateQueryBatchMs(*imdb_, queries);
  ASSERT_EQ(batch.size(), queries.size());
  // Drop the entries the batch call just cached so the serial path below
  // recomputes through the model instead of trivially replaying the cache.
  estimator_->InvalidatePredictionCache();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << "query " << i;
    auto serial = estimator_->EstimateQueryMs(*imdb_, queries[i]);
    ASSERT_TRUE(serial.ok()) << "query " << i;
    EXPECT_NEAR(batch[i]->value(), serial->value(), 1e-5) << "query " << i;
  }
}

}  // namespace
}  // namespace zerodb::zeroshot
