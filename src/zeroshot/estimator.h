#ifndef ZERODB_ZEROSHOT_ESTIMATOR_H_
#define ZERODB_ZEROSHOT_ESTIMATOR_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "datagen/corpus.h"
#include "models/zeroshot_model.h"
#include "obs/quality.h"
#include "train/dataset.h"
#include "train/trainer.h"
#include "workload/benchmarks.h"
#include "zeroshot/predict_cache.h"

namespace zerodb::zeroshot {

/// End-to-end configuration for training a zero-shot cost model on a corpus
/// of databases. Defaults are sized for a single-core machine; the paper
/// used 5,000 queries per database — scale `queries_per_database` up when
/// you have the budget.
struct ZeroShotConfig {
  size_t queries_per_database = 400;
  workload::WorkloadConfig workload = workload::TrainingWorkloadConfig();
  train::CollectOptions collect;
  train::TrainerOptions trainer;
  models::ZeroShotCostModel::Options model;
  uint64_t seed = 7;

  /// Serving: predictions are memoized by plan fingerprint + database
  /// identity + model generation; each PredictMs call prices all of its
  /// cache misses in one ForwardBatch call.
  PredictCacheOptions cache;
};

/// The public face of the reproduction: train once on many databases, then
/// predict runtimes for queries on a database the model has never seen.
class ZeroShotEstimator {
 public:
  /// Collects training workloads on every corpus database and trains the
  /// model. The corpus must outlive the estimator (records keep env
  /// pointers).
  static ZeroShotEstimator Train(
      const std::vector<datagen::DatabaseEnv>& corpus,
      const ZeroShotConfig& config);

  /// Trains from pre-collected records (used by benches that sweep corpus
  /// subsets without re-collecting).
  static ZeroShotEstimator TrainFromRecords(
      std::vector<train::QueryRecord> records, const ZeroShotConfig& config);

  /// Predicts runtimes for already-built records (e.g. an executed
  /// evaluation workload; required for exact-cardinality mode).
  std::vector<Millis> PredictMs(
      const std::vector<const train::QueryRecord*>& records);

  /// The deployable path: plans `query` on the (unseen) database and
  /// predicts its runtime without executing anything. Only valid for
  /// estimated-cardinality models. `planner_options` may declare
  /// hypothetical indexes — the What-If mode of Section 4.1. Equivalent to
  /// EstimateQueryBatchMs over the single query.
  StatusOr<Millis> EstimateQueryMs(
      const datagen::DatabaseEnv& env, const plan::QuerySpec& query,
      const optimizer::PlannerOptions& planner_options = {});

  /// Plans and prices a whole workload in one batched forward pass (cache
  /// misses only): the serving-path companion to EstimateQueryMs for
  /// callers like the what-if advisor that price N queries against the
  /// same hypothetical index set. One entry per query, in order;
  /// unplannable queries carry the planner's status, and a model in
  /// exact-cardinality mode fails every entry.
  std::vector<StatusOr<Millis>> EstimateQueryBatchMs(
      const datagen::DatabaseEnv& env, std::span<const plan::QuerySpec> queries,
      const optimizer::PlannerOptions& planner_options = {});

  /// Feeds one serving-time (prediction, observed runtime) pair into the
  /// online quality monitor — call it whenever a predicted query was
  /// actually executed. PredictMs does this automatically for records that
  /// carry a measured runtime.
  void RecordFeedback(Millis predicted, Millis actual) {
    // The quality monitor is generic obs-layer code: it compares the two
    // in log-q-error space and never mixes them with other quantities, so
    // the unit types stop at this boundary.
    if (quality_ != nullptr) quality_->Record(predicted.value(), actual.value());
  }

  /// Rolling q-error / drift state for this model's live predictions.
  /// Non-null after Train/TrainFromRecords.
  const obs::PredictionQualityMonitor* quality_monitor() const {
    return quality_.get();
  }

  /// The plan-fingerprint prediction cache fronting the model; non-null
  /// after Train/TrainFromRecords.
  const PredictCache* predict_cache() const { return cache_.get(); }

  /// Drops every cached prediction. Weight commits through model()
  /// (LoadWeights) need no call: the cache key carries the model's
  /// generation. Call it after writing parameter values directly, or to
  /// measure the uncached path; a drift event changes no weight, so it does
  /// not invalidate.
  void InvalidatePredictionCache() { cache_->Invalidate(); }

  models::ZeroShotCostModel& model() { return *model_; }
  const train::TrainResult& train_result() const { return train_result_; }
  const std::vector<train::QueryRecord>& training_records() const {
    return training_records_;
  }

 private:
  ZeroShotEstimator() = default;

  std::unique_ptr<models::ZeroShotCostModel> model_;
  train::TrainResult train_result_;
  std::vector<train::QueryRecord> training_records_;
  std::unique_ptr<obs::PredictionQualityMonitor> quality_;
  std::unique_ptr<PredictCache> cache_;
};

/// Collects the zero-shot training set: `queries_per_database` labeled
/// records from each corpus database.
///
/// Databases are collected in parallel on `pool` (nullptr forces serial).
/// Per-database workload/noise seeds are drawn up front in the serial draw
/// order and the per-database record batches concatenated in corpus order,
/// so the record set is bit-identical for any thread count.
std::vector<train::QueryRecord> CollectCorpusRecords(
    const std::vector<datagen::DatabaseEnv>& corpus,
    const ZeroShotConfig& config, ThreadPool* pool = ThreadPool::Global());

}  // namespace zerodb::zeroshot

#endif  // ZERODB_ZEROSHOT_ESTIMATOR_H_
