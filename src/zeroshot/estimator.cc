#include "zeroshot/estimator.h"

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_event.h"
#include "plan/fingerprint.h"

namespace zerodb::zeroshot {

namespace {

// Inference-side telemetry: how often the zero-shot "central brain" is
// consulted and what each call costs. Function-local statics keep the
// registry lookups off the hot path.
struct EstimatorMetrics {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* predict_calls = registry.GetCounter("zeroshot.predict_calls");
  obs::Counter* predictions = registry.GetCounter("zeroshot.predictions");
  obs::Counter* estimate_query_calls =
      registry.GetCounter("zeroshot.estimate_query_calls");
  obs::Counter* training_records =
      registry.GetCounter("zeroshot.training_records_collected");
  obs::Histogram* predict_us = registry.GetHistogram("zeroshot.predict_us");

  static EstimatorMetrics& Get() {
    static EstimatorMetrics* metrics = new EstimatorMetrics();
    return *metrics;
  }
};

// Features depend on the plan *and* on the database whose statistics
// featurize it, so the cache key mixes database identity (env address +
// name) into the canonical plan fingerprint. Envs outlive the estimator —
// records keep env pointers by the same contract — so the address is
// stable for the cache's lifetime; the name guards against an env being
// destroyed and another reallocated at the same address across runs of a
// bench loop. The model generation retires every entry a weight commit
// (retraining, LoadWeights through model()) made stale.
uint64_t CacheKey(const train::QueryRecord& record, uint64_t generation) {
  uint64_t key = plan::FingerprintPlan(record.plan);
  key = plan::FingerprintCombine(key, generation);
  key = plan::FingerprintCombine(
      key, static_cast<uint64_t>(reinterpret_cast<uintptr_t>(record.env)));
  return plan::FingerprintCombine(key,
                                  plan::FingerprintString(record.db_name));
}

}  // namespace

std::vector<train::QueryRecord> CollectCorpusRecords(
    const std::vector<datagen::DatabaseEnv>& corpus,
    const ZeroShotConfig& config, ThreadPool* pool) {
  // Pre-draw each database's (noise seed, workload seed) pair in the serial
  // draw order, then collect every database independently into its own slot:
  // the concatenation below is bit-identical for any thread count.
  struct DbSeeds {
    uint64_t noise_seed = 0;
    uint64_t workload_seed = 0;
  };
  Rng seed_rng(config.seed);
  std::vector<DbSeeds> seeds(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    seeds[i].noise_seed = seed_rng.NextUint64();
    seeds[i].workload_seed = seed_rng.NextUint64();
  }
  std::vector<std::vector<train::QueryRecord>> per_db(corpus.size());
  ParallelFor(pool, 0, corpus.size(), /*grain=*/1,
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  train::CollectOptions collect = config.collect;
                  collect.noise_seed = seeds[i].noise_seed;
                  per_db[i] = train::CollectRandomWorkload(
                      corpus[i], config.workload, config.queries_per_database,
                      seeds[i].workload_seed, collect);
                  ZDB_LOG(Debug)
                      << corpus[i].db->name() << ": collected "
                      << per_db[i].size() << " training records";
                }
              });
  std::vector<train::QueryRecord> records;
  for (std::vector<train::QueryRecord>& db_records : per_db) {
    for (train::QueryRecord& record : db_records) {
      records.push_back(std::move(record));
    }
  }
  EstimatorMetrics::Get().training_records->Add(
      static_cast<int64_t>(records.size()));
  return records;
}

ZeroShotEstimator ZeroShotEstimator::Train(
    const std::vector<datagen::DatabaseEnv>& corpus,
    const ZeroShotConfig& config) {
  return TrainFromRecords(CollectCorpusRecords(corpus, config), config);
}

ZeroShotEstimator ZeroShotEstimator::TrainFromRecords(
    std::vector<train::QueryRecord> records, const ZeroShotConfig& config) {
  ZDB_CHECK(!records.empty()) << "no training records collected";
  ZeroShotEstimator estimator;
  estimator.training_records_ = std::move(records);
  estimator.model_ =
      std::make_unique<models::ZeroShotCostModel>(config.model);
  estimator.train_result_ = train::TrainModel(
      estimator.model_.get(), train::MakeView(estimator.training_records_),
      config.trainer);
  estimator.quality_ = std::make_unique<obs::PredictionQualityMonitor>();
  // The cache is created after training, so it starts empty — (re)training
  // always begins with an invalidated cache by construction.
  estimator.cache_ = std::make_unique<PredictCache>(config.cache);
  return estimator;
}

std::vector<Millis> ZeroShotEstimator::PredictMs(
    const std::vector<const train::QueryRecord*>& records) {
  ZDB_CHECK(model_ != nullptr);
  EstimatorMetrics& metrics = EstimatorMetrics::Get();
  metrics.predict_calls->Add(1);
  metrics.predictions->Add(static_cast<int64_t>(records.size()));
  obs::ScopedTimer timer(metrics.registry.enabled() ? metrics.predict_us
                                                    : nullptr);
  std::vector<Millis> predicted(records.size());
  std::vector<uint64_t> miss_keys;
  std::vector<size_t> miss_positions;
  std::vector<const train::QueryRecord*> miss_records;
  miss_keys.reserve(records.size());
  miss_positions.reserve(records.size());
  miss_records.reserve(records.size());
  const uint64_t generation = model_->generation();
  for (size_t i = 0; i < records.size(); ++i) {
    const uint64_t key = CacheKey(*records[i], generation);
    if (std::optional<Millis> hit = cache_->Lookup(key)) {
      predicted[i] = *hit;
      continue;
    }
    miss_keys.push_back(key);
    miss_positions.push_back(i);
    miss_records.push_back(records[i]);
  }
  if (!miss_records.empty()) {
    obs::TimelineScope scope("zeroshot.predict", "zeroshot");
    scope.AddArg("records", static_cast<double>(records.size()));
    scope.AddArg("cache_misses", static_cast<double>(miss_records.size()));
    std::vector<Millis> fresh = model_->ForwardBatch(miss_records);
    for (size_t j = 0; j < miss_positions.size(); ++j) {
      predicted[miss_positions[j]] = fresh[j];
      cache_->Insert(miss_keys[j], fresh[j]);
    }
  }
  // Records that carry a measured runtime (executed evaluation workloads)
  // double as serving-time feedback for the quality monitor.
  if (quality_ != nullptr) {
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i]->runtime_ms > 0.0) {
        quality_->Record(predicted[i].value(), records[i]->runtime_ms);
      }
    }
  }
  return predicted;
}

StatusOr<Millis> ZeroShotEstimator::EstimateQueryMs(
    const datagen::DatabaseEnv& env, const plan::QuerySpec& query,
    const optimizer::PlannerOptions& planner_options) {
  return std::move(EstimateQueryBatchMs(env, std::span(&query, 1),
                                        planner_options)[0]);
}

std::vector<StatusOr<Millis>> ZeroShotEstimator::EstimateQueryBatchMs(
    const datagen::DatabaseEnv& env, std::span<const plan::QuerySpec> queries,
    const optimizer::PlannerOptions& planner_options) {
  ZDB_CHECK(model_ != nullptr);
  std::vector<StatusOr<Millis>> out;
  out.reserve(queries.size());
  if (model_->cardinality_mode() != featurize::CardinalityMode::kEstimated) {
    for (size_t i = 0; i < queries.size(); ++i) {
      out.emplace_back(Status::InvalidArgument(
          "query estimation requires an estimated-cardinality model (exact "
          "cardinalities only exist after execution)"));
    }
    return out;
  }
  EstimatorMetrics& metrics = EstimatorMetrics::Get();
  metrics.estimate_query_calls->Add(static_cast<int64_t>(queries.size()));
  obs::TimelineScope scope("zeroshot.estimate_query", "zeroshot");
  scope.AddArg("queries", static_cast<double>(queries.size()));
  optimizer::Planner planner(env.db.get(), &env.stats, optimizer::CostParams(),
                             planner_options);
  std::vector<train::QueryRecord> records;
  records.reserve(queries.size());
  std::vector<size_t> positions;  // out[] index each record prices
  positions.reserve(queries.size());
  for (const plan::QuerySpec& query : queries) {
    StatusOr<plan::PhysicalPlan> planned = planner.Plan(query);
    if (!planned.ok()) {
      out.emplace_back(planned.status());
      continue;
    }
    train::QueryRecord record;
    record.env = &env;
    record.db_name = env.db->name();
    record.query = query;
    record.plan = std::move(*planned);
    record.opt_cost = record.plan.root->est_cost;
    positions.push_back(out.size());
    records.push_back(std::move(record));
    out.emplace_back(Millis(0.0));  // overwritten by the batched prediction
  }
  // Through PredictMs (not the model directly) so predictions are served
  // from — and inserted into — the fingerprint cache.
  if (!records.empty()) {
    std::vector<Millis> predicted = PredictMs(train::MakeView(records));
    for (size_t j = 0; j < positions.size(); ++j) {
      out[positions[j]] = predicted[j];
    }
  }
  return out;
}

}  // namespace zerodb::zeroshot
