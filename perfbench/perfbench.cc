// End-to-end benchmark of zerodb's two user-facing paths: the reproduction
// pipeline (collect -> train -> evaluate) and the serving call
// ZeroShotEstimator::EstimateQueryMs, alone and inside the what-if index
// advisor. See README.md for the workloads, metrics and layer map.
//
//   zerodb_perfbench --workload <train-pipeline|serve-cold|whatif-advise>
//                    --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Detail lines go to stdout first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics. A run whose setup
// fails, or that measures a non-finite metric, exits non-zero without a
// result line.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/corpus.h"
#include "exec/executor.h"
#include "featurize/zeroshot_featurizer.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "plan/fingerprint.h"
#include "runtime/simulator.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "whatif/index_advisor.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"
#include "zeroshot/estimator.h"

namespace zerodb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Independent sub-stream seeds from the --seed argument, so the warm-up,
// timed and check inputs never overlap.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.NextUint64();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool FinitePositive(double value) { return std::isfinite(value) && value > 0; }

std::vector<plan::QuerySpec> NextQueries(workload::QueryGenerator* generator,
                                         size_t count) {
  std::vector<plan::QuerySpec> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) queries.push_back(generator->Next());
  return queries;
}
// ---------------------------------------------------------------------------
// Sizes and fixed inputs

struct Sizes {
  size_t corpus_dbs = 8;
  double corpus_scale = 0.1;
  double imdb_scale = 0.12;
  size_t serving_queries_per_db = 100;  ///< the serving estimator's corpus
  size_t pipeline_queries_per_db = 50;  ///< one train-pipeline op
  size_t epochs = 10;
  size_t eval_queries = 200;
  size_t setup_repeats = 3;
  size_t check_sample = 32;  ///< serve-cold single-vs-batch sample
  size_t count_window = 16;  ///< whatif ops whose work counts are reported
};

Sizes SmokeSizes() {
  Sizes sizes;
  sizes.corpus_dbs = 3;
  sizes.corpus_scale = 0.03;
  sizes.imdb_scale = 0.03;
  sizes.serving_queries_per_db = 20;
  sizes.pipeline_queries_per_db = 20;
  sizes.epochs = 2;
  sizes.eval_queries = 30;
  sizes.setup_repeats = 1;
  sizes.check_sample = 8;
  sizes.count_window = 4;
  return sizes;
}

// The corpus, the unseen database and its evaluation set do not depend on
// --seed: q-errors are measured on the same executed queries in every run.
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kImdbSeed = 7;
constexpr uint64_t kEvalSeed = 1337;
constexpr uint64_t kServingModelSeed = 7;
constexpr uint64_t kPipelineCollectSeed = 7;

zeroshot::ZeroShotConfig MakeConfig(const Sizes& sizes, size_t queries_per_db,
                                    uint64_t seed) {
  zeroshot::ZeroShotConfig config;
  config.queries_per_database = queries_per_db;
  config.trainer.max_epochs = sizes.epochs;
  config.seed = seed;
  return config;
}

// Everything the workloads share. Records hold pointers to the envs, so an
// Inputs object stays where it was built (held by unique_ptr).
struct Inputs {
  std::vector<datagen::DatabaseEnv> corpus;
  datagen::DatabaseEnv imdb;
  std::vector<train::QueryRecord> eval;
  std::vector<double> eval_truth;
  double corpus_ms = 0.0;  ///< datagen time of the training corpus
};

std::unique_ptr<Inputs> BuildInputs(const Sizes& sizes) {
  auto inputs = std::make_unique<Inputs>();
  const Clock::time_point start = Clock::now();
  inputs->corpus = datagen::MakeTrainingCorpus(kCorpusSeed, sizes.corpus_dbs,
                                               sizes.corpus_scale);
  inputs->corpus_ms = MicrosSince(start) / 1000.0;
  inputs->imdb = datagen::MakeImdbEnv(kImdbSeed, sizes.imdb_scale);
  std::vector<plan::QuerySpec> queries =
      workload::MakeBenchmark(workload::BenchmarkWorkload::kSynthetic,
                              inputs->imdb, sizes.eval_queries, kEvalSeed);
  inputs->eval =
      train::CollectRecords(inputs->imdb, queries, train::CollectOptions());
  for (const train::QueryRecord& record : inputs->eval) {
    inputs->eval_truth.push_back(record.runtime_ms);
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// Tracing: layer self times, from the benchmark's own spans around calls
// into each layer plus the timers the library already keeps in the global
// MetricsRegistry (enabled only in the traced phase).

enum Layer : size_t {
  kCollect,
  kOptimizer,
  kExec,
  kRuntime,
  kTrain,
  kPlan,
  kFeaturize,
  kModels,
  kZeroshot,
  kWhatif,
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "collect",  "optimizer", "exec",     "runtime",  "train",
    "plan",     "featurize", "models",   "zeroshot", "whatif"};

// Counter and histogram values read from the global registry; the traced
// phase reports differences of two readings.
struct RegistryReading {
  int64_t plans = 0;
  int64_t join_candidates = 0;
  int64_t predict_calls = 0;
  int64_t predictions = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t rows_produced = 0;
  int64_t tasks_run = 0;
  int64_t queries_priced = 0;
  double plan_us = 0.0;
  double exec_us = 0.0;
  double predict_us = 0.0;
  std::vector<double> steal_bounds;
  std::vector<int64_t> steal_buckets;
};

RegistryReading ReadRegistry() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  RegistryReading out;
  out.plans = registry.GetCounter("optimizer.plans")->value();
  out.join_candidates =
      registry.GetCounter("optimizer.join_candidates")->value();
  out.predict_calls = registry.GetCounter("zeroshot.predict_calls")->value();
  out.predictions = registry.GetCounter("zeroshot.predictions")->value();
  out.cache_hits = registry.GetCounter("cache.hit")->value();
  out.cache_misses = registry.GetCounter("cache.miss")->value();
  out.rows_produced = registry.GetCounter("exec.rows_produced")->value();
  out.tasks_run = registry.GetCounter("pool.tasks_run")->value();
  out.queries_priced =
      registry.GetCounter("zeroshot.estimate_query_calls")->value();
  out.plan_us = registry.GetHistogram("optimizer.plan_us")->sum();
  out.exec_us = registry.GetHistogram("exec.query_us")->sum();
  out.predict_us = registry.GetHistogram("zeroshot.predict_us")->sum();
  const obs::Histogram* steal = registry.GetHistogram("pool.steal_latency_us");
  out.steal_bounds = steal->bounds();
  for (size_t i = 0; i <= out.steal_bounds.size(); ++i) {
    out.steal_buckets.push_back(steal->bucket_count(i));
  }
  return out;
}

RegistryReading Delta(const RegistryReading& after,
                      const RegistryReading& before) {
  RegistryReading d = after;
  d.plans -= before.plans;
  d.join_candidates -= before.join_candidates;
  d.predict_calls -= before.predict_calls;
  d.predictions -= before.predictions;
  d.cache_hits -= before.cache_hits;
  d.cache_misses -= before.cache_misses;
  d.rows_produced -= before.rows_produced;
  d.tasks_run -= before.tasks_run;
  d.queries_priced -= before.queries_priced;
  d.plan_us -= before.plan_us;
  d.exec_us -= before.exec_us;
  d.predict_us -= before.predict_us;
  for (size_t i = 0; i < d.steal_buckets.size(); ++i) {
    d.steal_buckets[i] -= before.steal_buckets[i];
  }
  return d;
}

// Quantile of the observations between two readings, interpolated inside
// the containing bucket like obs::Histogram::Quantile.
double BucketQuantile(const RegistryReading& d, double q) {
  int64_t total = 0;
  for (int64_t count : d.steal_buckets) total += count;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  int64_t seen = 0;
  for (size_t i = 0; i < d.steal_buckets.size(); ++i) {
    if (d.steal_buckets[i] == 0) continue;
    if (static_cast<double>(seen + d.steal_buckets[i]) >= target) {
      const double lower = i == 0 ? 0.0 : d.steal_bounds[i - 1];
      const double upper =
          i < d.steal_bounds.size() ? d.steal_bounds[i] : lower;
      const double within = (target - static_cast<double>(seen)) /
                            static_cast<double>(d.steal_buckets[i]);
      return lower + (upper - lower) * within;
    }
    seen += d.steal_buckets[i];
  }
  return d.steal_bounds.empty() ? 0.0 : d.steal_bounds.back();
}

// Per-call costs of layers that only run nested inside a library call
// (fingerprinting, featurization and the forward pass inside PredictMs;
// the runtime simulator inside collection). Measured after the traced
// phase by calling each layer directly on plans of the workload's own
// stream, outside any timed op.
struct Probes {
  double fingerprint_us = 0.0;  ///< plan::FingerprintPlan, per plan
  double featurize_us = 0.0;    ///< ZeroShotFeaturizer::Featurize, per plan
  double forward_us = 0.0;  ///< ForwardBatch per record, featurize included
  double simulate_us = 0.0;     ///< RuntimeSimulator::NoisyPlanMs, per plan
};

// `batch` is the number of records per ForwardBatch call, the workload's
// mean cache misses per PredictMs call.
Probes MeasureProbes(const std::vector<const train::QueryRecord*>& records,
                     models::ZeroShotCostModel* model, size_t batch) {
  const featurize::ZeroShotFeaturizer featurizer(
      featurize::CardinalityMode::kEstimated);
  std::vector<double> fingerprint, featurize_times, forward;
  const double n = static_cast<double>(records.size());
  batch = std::clamp<size_t>(batch, 1, records.size());
  uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    Clock::time_point start = Clock::now();
    for (const train::QueryRecord* record : records) {
      sink ^= plan::FingerprintPlan(record->plan);
    }
    fingerprint.push_back(MicrosSince(start) / n);
    start = Clock::now();
    for (const train::QueryRecord* record : records) {
      sink ^= featurizer.Featurize(*record->plan.root, *record->env)
                  .nodes.size();
    }
    featurize_times.push_back(MicrosSince(start) / n);
    start = Clock::now();
    for (size_t begin = 0; begin < records.size(); begin += batch) {
      const size_t end = std::min(begin + batch, records.size());
      std::vector<Millis> out = model->ForwardBatch(
          {records.begin() + static_cast<std::ptrdiff_t>(begin),
           records.begin() + static_cast<std::ptrdiff_t>(end)});
      sink ^= static_cast<uint64_t>(out.size());
    }
    forward.push_back(MicrosSince(start) / n);
  }
  if (sink == 0x5eed) std::fprintf(stderr, "\n");  // keeps the calls live
  Probes probes;
  probes.fingerprint_us = Median(fingerprint);
  probes.featurize_us = Median(featurize_times);
  probes.forward_us = Median(forward);
  return probes;
}

// Self time accumulated over the traced phase. Spans the benchmark opens
// around its own calls add to a layer; time nested inside a span then moves
// from the enclosing layer to the nested one, so self times never double
// count and always sum to the span total.
struct TraceTotals {
  double self_us[kNumLayers] = {};
  double span_us = 0.0;       ///< op time inside the benchmark's spans
  double estimated_us = 0.0;  ///< self time placed by probe estimates
  double op_us = 0.0;         ///< summed op wall time
  size_t ops = 0;
  // train-pipeline only
  double collect_us = 0.0;      ///< CollectCorpusRecords wall time
  double collect_cpu_us = 0.0;  ///< process CPU time during collection
  double collect_records = 0.0;
  double train_us = 0.0;
  double train_cpu_s = 0.0;
  double train_epochs = 0.0;
  double train_record_epochs = 0.0;
  // whatif-advise only: work counts of the first ops of the stream
  double window_candidates = 0.0;
  double window_queries_priced = 0.0;
  size_t window_ops = 0;

  void Span(Layer layer, double us) {
    self_us[layer] += us;
    span_us += us;
  }

  // Moves up to `us` of `outer`'s self time to `inner`; returns the amount
  // moved. A nested time can exceed what is left of its span only through
  // estimation error or clock skew, so it is capped there.
  double Nest(Layer outer, Layer inner, double us, bool estimated = false) {
    us = std::clamp(us, 0.0, self_us[outer]);
    self_us[outer] -= us;
    self_us[inner] += us;
    if (estimated) estimated_us += us;
    return us;
  }
};

// Splits PredictMs time (registry zeroshot.predict_us), already attributed
// to the zeroshot layer, into fingerprinting (every record), featurization
// and the forward pass (cache misses only). The rest stays with zeroshot:
// cache lookups and the estimator's own bookkeeping.
void SplitPredict(const RegistryReading& d, const Probes& probes,
                  TraceTotals* trace) {
  double left = d.predict_us;
  const double misses = static_cast<double>(d.cache_misses);
  const std::pair<Layer, double> parts[] = {
      {kPlan, static_cast<double>(d.predictions) * probes.fingerprint_us},
      {kFeaturize, misses * probes.featurize_us},
      {kModels,
       misses * std::max(0.0, probes.forward_us - probes.featurize_us)}};
  for (const auto& [layer, us] : parts) {
    left -= trace->Nest(kZeroshot, layer, std::min(us, left),
                        /*estimated=*/true);
  }
}

// Mean records per ForwardBatch call: cache misses per PredictMs call.
size_t ForwardBatchSize(const RegistryReading& d) {
  if (d.predict_calls <= 0) return 1;
  return static_cast<size_t>(std::lround(static_cast<double>(d.cache_misses) /
                                         static_cast<double>(d.predict_calls)));
}

// ---------------------------------------------------------------------------
// Workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input the ops consume. Timed as setup_s.
  virtual void Setup() = 0;
  /// Runs once after setup: warm-up plus the reference outputs the output
  /// checks compare against. Returns the number of failed checks.
  virtual int Prepare() = 0;
  /// Restarts the op input stream (each phase sees the same ops).
  virtual void StartPhase() = 0;
  /// Makes the next op's input; not timed.
  virtual void NextInput() {}
  /// One op. `trace` is non-null in the traced phase. False = wrong output.
  virtual bool RunOp(TraceTotals* trace) = 0;
  /// Output checks after the timed loop. Returns the number failed.
  virtual int FinalCheck() = 0;
  /// Once the traced phase ends: measures the probes on the workload's own
  /// plans and attributes nested library time. `d` is the registry delta
  /// over the traced phase.
  virtual Probes Attribute(const RegistryReading& d, TraceTotals* trace) = 0;
  virtual const Inputs& inputs() const = 0;
  virtual train::QErrorStats qerrors() const = 0;
  /// op_tail_ms percentile: the highest one with at least ten samples
  /// beyond it at the workload's designed op count, with margin.
  virtual double tail_percentile() const = 0;
};

// --- train-pipeline -------------------------------------------------------
// One op: collect labelled records on the corpus, train a zero-shot model
// on them, predict the evaluation set. Every op does identical work.

class TrainPipeline final : public Workload {
 public:
  // The pipeline's inputs are fixed and ignore --seed: any seeded change to
  // the records, the shuffle or the split moves the trained model's q-errors
  // by up to 50% (measured over trainer seeds 1-5), and this workload's
  // q-errors are a regression guard that must repeat exactly.
  explicit TrainPipeline(const Sizes& sizes)
      : sizes_(sizes),
        config_(MakeConfig(sizes, sizes.pipeline_queries_per_db,
                           kPipelineCollectSeed)) {}

  void Setup() override { inputs_ = BuildInputs(sizes_); }

  int Prepare() override {
    // The first op is the warm-up and the reference for every later op.
    std::vector<train::QueryRecord> records =
        zeroshot::CollectCorpusRecords(inputs_->corpus, config_);
    KeepSimulateSample(records);
    Finish(std::move(records));
    reference_losses_ = losses_;
    reference_qerrors_ = op_qerrors_;
    reference_stats_ = train::ComputeQErrors(last_predictions_,
                                             inputs_->eval_truth);
    return 0;
  }

  void StartPhase() override {}

  bool RunOp(TraceTotals* trace) override {
    if (trace == nullptr) {
      Finish(zeroshot::CollectCorpusRecords(inputs_->corpus, config_));
    } else {
      // The same call as the untraced op, as one span; Attribute splits it
      // by the registry's executor and planner timers.
      const double cpu_start = ProcessCpuSeconds();
      const Clock::time_point start = Clock::now();
      std::vector<train::QueryRecord> records =
          zeroshot::CollectCorpusRecords(inputs_->corpus, config_);
      const double us = MicrosSince(start);
      trace->Span(kCollect, us);
      trace->collect_us += us;
      trace->collect_cpu_us += (ProcessCpuSeconds() - cpu_start) * 1e6;
      trace->collect_records += static_cast<double>(records.size());
      Finish(std::move(records), trace);
    }
    return losses_ == reference_losses_ && op_qerrors_ == reference_qerrors_;
  }

  int FinalCheck() override { return 0; }

  Probes Attribute(const RegistryReading& d, TraceTotals* trace) override {
    // Probes on the plans the op's PredictMs prices: the evaluation set.
    Probes probes = MeasureProbes(train::MakeView(inputs_->eval),
                                  &estimator_->model(), ForwardBatchSize(d));
    probes.simulate_us = MeasureSimulate();
    // The traced ops' only planner and executor calls are in collection.
    // Their timers sum wall time over the pool threads; the collection span
    // is split in proportion to the busy time of all threads, its process
    // CPU time. When the host steals CPU, the timed calls' wall time can
    // exceed that, and the remainder left to collect reads 0.
    const double simulate_us = trace->collect_records * probes.simulate_us;
    const double busy_us =
        std::max(trace->collect_cpu_us, d.exec_us + d.plan_us + simulate_us);
    const double wall_per_busy =
        busy_us > 0.0 ? trace->collect_us / busy_us : 0.0;
    trace->Nest(kCollect, kExec, d.exec_us * wall_per_busy);
    trace->Nest(kCollect, kOptimizer, d.plan_us * wall_per_busy);
    trace->Nest(kCollect, kRuntime, simulate_us * wall_per_busy,
                /*estimated=*/true);
    // The evaluation PredictMs is the only PredictMs of the op, so the
    // registry's predict_us delta is all of it.
    SplitPredict(d, probes, trace);
    return probes;
  }

  const Inputs& inputs() const override { return *inputs_; }
  train::QErrorStats qerrors() const override { return reference_stats_; }
  double tail_percentile() const override { return 75.0; }  // ~50 ops/run

 private:
  // A plan the runtime simulator prices, with the execution result it
  // reads. The plan lives behind its own root pointer, so the result's
  // per-node stats stay keyed to it when the pair is moved.
  struct Executed {
    plan::PhysicalPlan plan;
    exec::ExecutionResult result;
  };

  // Re-executes every eighth collected record, for the simulator probe.
  void KeepSimulateSample(const std::vector<train::QueryRecord>& records) {
    for (size_t i = 0; i < records.size(); i += 8) {
      Executed executed{records[i].plan.Clone(), {}};
      exec::Executor executor(records[i].env->db.get(),
                              config_.collect.executor);
      StatusOr<exec::ExecutionResult> result =
          executor.Execute(&executed.plan);
      if (!result.ok()) continue;
      executed.result = std::move(*result);
      simulate_sample_.push_back(std::move(executed));
    }
  }

  // Median over five passes of NoisyPlanMs per plan on the sample.
  double MeasureSimulate() const {
    if (simulate_sample_.empty()) return 0.0;
    const runtime::RuntimeSimulator simulator(config_.collect.machine);
    Rng noise_rng(config_.collect.noise_seed);
    std::vector<double> per_plan;
    double sink = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
      const Clock::time_point start = Clock::now();
      for (const Executed& executed : simulate_sample_) {
        sink += simulator.NoisyPlanMs(executed.plan, executed.result,
                                      &noise_rng);
      }
      per_plan.push_back(MicrosSince(start) /
                         static_cast<double>(simulate_sample_.size()));
    }
    if (sink < 0.0) std::fprintf(stderr, "\n");  // keeps the calls live
    return Median(per_plan);
  }

  // Trains on `records`, predicts the evaluation set and keeps the outputs
  // the checks compare.
  void Finish(std::vector<train::QueryRecord> records,
              TraceTotals* trace = nullptr) {
    Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    const size_t record_count = records.size();
    estimator_ = std::make_unique<zeroshot::ZeroShotEstimator>(
        zeroshot::ZeroShotEstimator::TrainFromRecords(std::move(records),
                                                      config_));
    if (trace != nullptr) {
      const double us = MicrosSince(start);
      trace->Span(kTrain, us);
      trace->train_us += us;
      trace->train_cpu_s += ProcessCpuSeconds() - cpu_start;
      const double epochs =
          static_cast<double>(estimator_->train_result().epochs_run);
      trace->train_epochs += epochs;
      trace->train_record_epochs += epochs * static_cast<double>(record_count);
    }
    start = Clock::now();
    last_predictions_ =
        estimator_->PredictMs(train::MakeView(inputs_->eval));
    if (trace != nullptr) trace->Span(kZeroshot, MicrosSince(start));
    losses_.clear();
    for (const obs::EpochStat& epoch : estimator_->train_result().history) {
      losses_.push_back(epoch.train_loss);
      losses_.push_back(epoch.val_loss);
    }
    op_qerrors_ = train::QErrorsOf(last_predictions_, inputs_->eval_truth);
  }

  Sizes sizes_;
  zeroshot::ZeroShotConfig config_;
  std::unique_ptr<Inputs> inputs_;
  std::unique_ptr<zeroshot::ZeroShotEstimator> estimator_;
  std::vector<Executed> simulate_sample_;
  std::vector<Millis> last_predictions_;
  std::vector<double> losses_;
  std::vector<double> op_qerrors_;
  std::vector<double> reference_losses_;
  std::vector<double> reference_qerrors_;
  train::QErrorStats reference_stats_;
};

// Serving workloads share a long-lived estimator trained once in setup on a
// fixed seed, so their q-errors do not depend on --seed.
class ServingWorkload : public Workload {
 public:
  ServingWorkload(const Sizes& sizes, uint64_t seed)
      : sizes_(sizes), seed_(seed) {}

  void Setup() override {
    inputs_ = BuildInputs(sizes_);
    zeroshot::ZeroShotConfig config =
        MakeConfig(sizes_, sizes_.serving_queries_per_db, kServingModelSeed);
    estimator_ = std::make_unique<zeroshot::ZeroShotEstimator>(
        zeroshot::ZeroShotEstimator::Train(inputs_->corpus, config));
  }

  const Inputs& inputs() const override { return *inputs_; }

  train::QErrorStats qerrors() const override { return stats_; }

 protected:
  // Evaluates the estimator on the executed evaluation set (untimed).
  void EvaluateQErrors() {
    std::vector<Millis> predictions =
        estimator_->PredictMs(train::MakeView(inputs_->eval));
    stats_ = train::ComputeQErrors(predictions, inputs_->eval_truth);
  }

  // True for the first count_window ops of the traced phase, whose work
  // counts are reported and whose queries the probes run on.
  bool InWindow(const TraceTotals* trace) const {
    return trace != nullptr && window_ops_ < sizes_.count_window;
  }

  void KeepForProbes(const std::vector<plan::QuerySpec>& queries) {
    probe_queries_.insert(probe_queries_.end(), queries.begin(),
                          queries.end());
    ++window_ops_;
  }

  // Probes on the window's queries, planned by the default planner (outside
  // any timed op). `batch` records go to each ForwardBatch call.
  Probes MeasureWindowProbes(size_t batch) {
    optimizer::Planner planner(inputs_->imdb.db.get(), &inputs_->imdb.stats);
    for (const plan::QuerySpec& query : probe_queries_) {
      StatusOr<plan::PhysicalPlan> planned = planner.Plan(query);
      if (!planned.ok()) continue;
      train::QueryRecord record;
      record.env = &inputs_->imdb;
      record.db_name = inputs_->imdb.db->name();
      record.query = query;
      record.plan = std::move(*planned);
      probe_records_.push_back(std::move(record));
    }
    if (probe_records_.empty()) return Probes();
    return MeasureProbes(train::MakeView(probe_records_), &estimator_->model(),
                         batch);
  }

  Sizes sizes_;
  uint64_t seed_;
  std::unique_ptr<Inputs> inputs_;
  std::unique_ptr<zeroshot::ZeroShotEstimator> estimator_;
  train::QErrorStats stats_;

 private:
  size_t window_ops_ = 0;
  std::vector<plan::QuerySpec> probe_queries_;
  std::vector<train::QueryRecord> probe_records_;
};

// --- serve-cold -----------------------------------------------------------
// One op: EstimateQueryMs, one call per query, on the next 16 queries of a
// seeded stream of distinct IMDB queries; the fingerprint cache almost never
// hits. Sixteen calls per op keep an op (~0.7 ms) well above timer and
// scheduler jitter, so the tail percentile measures the estimator.

constexpr size_t kServeQueriesPerOp = 16;

class ServeCold final : public ServingWorkload {
 public:
  using ServingWorkload::ServingWorkload;

  int Prepare() override {
    EvaluateQErrors();
    workload::QueryGenerator sample_generator(
        &inputs_->imdb, workload::TrainingWorkloadConfig(),
        StreamSeed(seed_, 1));
    sample_ = NextQueries(&sample_generator, sizes_.check_sample);
    int failed = 0;
    if (!SingleMatchesBatch(&reference_)) ++failed;
    // Warm-up on its own stream.
    workload::QueryGenerator warmup(&inputs_->imdb,
                                    workload::TrainingWorkloadConfig(),
                                    StreamSeed(seed_, 2));
    for (int i = 0; i < 200; ++i) {
      (void)estimator_->EstimateQueryMs(inputs_->imdb, warmup.Next());
    }
    return failed;
  }

  double tail_percentile() const override { return 99.0; }  // ~25k ops/run

  void StartPhase() override {
    estimator_->InvalidatePredictionCache();
    generator_ = std::make_unique<workload::QueryGenerator>(
        &inputs_->imdb, workload::TrainingWorkloadConfig(),
        StreamSeed(seed_, 3));
  }

  void NextInput() override {
    queries_ = NextQueries(generator_.get(), kServeQueriesPerOp);
  }

  bool RunOp(TraceTotals* trace) override {
    bool ok = true;
    const Clock::time_point start = Clock::now();
    for (const plan::QuerySpec& query : queries_) {
      StatusOr<Millis> ms = estimator_->EstimateQueryMs(inputs_->imdb, query);
      ok = ok && ms.ok() && FinitePositive(ms->value());
    }
    if (trace != nullptr) trace->Span(kZeroshot, MicrosSince(start));
    if (InWindow(trace)) KeepForProbes(queries_);
    return ok;
  }

  int FinalCheck() override {
    std::vector<double> after;
    if (!SingleMatchesBatch(&after)) return 1;
    if (after.size() != reference_.size()) return 1;
    for (size_t i = 0; i < after.size(); ++i) {
      if (!SameBits(after[i], reference_[i])) return 1;
    }
    return 0;
  }

  Probes Attribute(const RegistryReading& d, TraceTotals* trace) override {
    const Probes probes = MeasureWindowProbes(ForwardBatchSize(d));
    trace->Nest(kZeroshot, kOptimizer, d.plan_us);
    SplitPredict(d, probes, trace);
    return probes;
  }

 private:
  // EstimateQueryMs on each sample query must equal EstimateQueryBatchMs on
  // the whole sample bit for bit, with finite positive values. Both sides
  // start from an empty cache, so both run the model.
  bool SingleMatchesBatch(std::vector<double>* values) {
    estimator_->InvalidatePredictionCache();
    std::vector<StatusOr<Millis>> batch =
        estimator_->EstimateQueryBatchMs(inputs_->imdb, sample_);
    estimator_->InvalidatePredictionCache();
    bool ok = batch.size() == sample_.size();
    values->clear();
    for (size_t i = 0; ok && i < sample_.size(); ++i) {
      StatusOr<Millis> single =
          estimator_->EstimateQueryMs(inputs_->imdb, sample_[i]);
      ok = single.ok() && batch[i].ok() &&
           SameBits(single->value(), batch[i]->value()) &&
           FinitePositive(single->value());
      if (ok) values->push_back(single->value());
    }
    estimator_->InvalidatePredictionCache();
    return ok;
  }

  std::vector<plan::QuerySpec> sample_;
  std::vector<double> reference_;
  std::unique_ptr<workload::QueryGenerator> generator_;
  std::vector<plan::QuerySpec> queries_;
};

// --- whatif-advise --------------------------------------------------------
// One op: IndexAdvisor::Recommend on the next seeded 12-query workload
// against the long-lived estimator; the greedy search re-prices mostly
// identical plans, so the fingerprint cache mostly hits.

workload::WorkloadConfig AdvisorWorkloadConfig() {
  workload::WorkloadConfig config;
  config.min_tables = 1;
  config.max_tables = 3;
  config.min_predicates = 1;
  config.max_predicates = 3;
  config.range_predicate_prob = 0.3;
  return config;
}

constexpr size_t kAdvisorQueries = 12;

class WhatifAdvise final : public ServingWorkload {
 public:
  using ServingWorkload::ServingWorkload;

  int Prepare() override {
    EvaluateQErrors();
    advisor_ = std::make_unique<whatif::IndexAdvisor>(estimator_.get());
    workload::QueryGenerator pinned(&inputs_->imdb, AdvisorWorkloadConfig(),
                                    StreamSeed(seed_, 1));
    pinned_ = NextQueries(&pinned, kAdvisorQueries);
    pinned_chosen_ = Chosen(advisor_->Recommend(inputs_->imdb, pinned_));
    workload::QueryGenerator warmup(&inputs_->imdb, AdvisorWorkloadConfig(),
                                    StreamSeed(seed_, 2));
    for (int op = 0; op < 20; ++op) {
      (void)advisor_->Recommend(inputs_->imdb,
                                NextQueries(&warmup, kAdvisorQueries));
    }
    return 0;
  }

  double tail_percentile() const override { return 99.0; }  // ~4k ops/run

  void StartPhase() override {
    generator_ = std::make_unique<workload::QueryGenerator>(
        &inputs_->imdb, AdvisorWorkloadConfig(), StreamSeed(seed_, 3));
  }

  void NextInput() override {
    queries_ = NextQueries(generator_.get(), kAdvisorQueries);
  }

  bool RunOp(TraceTotals* trace) override {
    const bool in_window = InWindow(trace);
    const int64_t priced_before =
        in_window ? ReadRegistry().queries_priced : 0;
    const Clock::time_point start = Clock::now();
    whatif::AdvisorResult result = advisor_->Recommend(inputs_->imdb, queries_);
    if (trace != nullptr) trace->Span(kWhatif, MicrosSince(start));
    if (in_window) {
      trace->window_queries_priced +=
          static_cast<double>(ReadRegistry().queries_priced - priced_before);
      trace->window_candidates += static_cast<double>(
          advisor_->EnumerateCandidates(inputs_->imdb, queries_).size());
      ++trace->window_ops;
      KeepForProbes(queries_);
    }
    return FinitePositive(result.baseline_total_ms.value()) &&
           FinitePositive(result.final_total_ms.value()) &&
           result.final_total_ms <= result.baseline_total_ms;
  }

  int FinalCheck() override {
    return Chosen(advisor_->Recommend(inputs_->imdb, pinned_)) ==
                   pinned_chosen_
               ? 0
               : 1;
  }

  Probes Attribute(const RegistryReading& d, TraceTotals* trace) override {
    const Probes probes = MeasureWindowProbes(ForwardBatchSize(d));
    trace->Nest(kWhatif, kOptimizer, d.plan_us);
    trace->Nest(kWhatif, kZeroshot, d.predict_us);
    SplitPredict(d, probes, trace);
    return probes;
  }

 private:
  static std::vector<std::pair<std::string, size_t>> Chosen(
      const whatif::AdvisorResult& result) {
    std::vector<std::pair<std::string, size_t>> chosen;
    for (const whatif::IndexCandidate& index : result.chosen) {
      chosen.emplace_back(index.table, index.column_index);
    }
    return chosen;
  }

  std::unique_ptr<whatif::IndexAdvisor> advisor_;
  std::vector<plan::QuerySpec> pinned_;
  std::vector<std::pair<std::string, size_t>> pinned_chosen_;
  std::unique_ptr<workload::QueryGenerator> generator_;
  std::vector<plan::QuerySpec> queries_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Sizes& sizes, uint64_t seed) {
  if (name == "train-pipeline") {
    return std::make_unique<TrainPipeline>(sizes);
  }
  if (name == "serve-cold") return std::make_unique<ServeCold>(sizes, seed);
  if (name == "whatif-advise") {
    return std::make_unique<WhatifAdvise>(sizes, seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Measurement loop and report

struct Phase {
  std::vector<double> latencies_ms;
  double op_s = 0.0;  ///< time spent inside ops
  int64_t failed = 0;
};

// Closed loop, one caller thread: runs ops back to back for `seconds`.
Phase RunPhase(Workload* workload, double seconds, TraceTotals* trace) {
  Phase phase;
  workload->StartPhase();
  const Clock::time_point phase_start = Clock::now();
  while (MicrosSince(phase_start) < seconds * 1e6 ||
         phase.latencies_ms.empty()) {
    workload->NextInput();
    const Clock::time_point start = Clock::now();
    const bool ok = workload->RunOp(trace);
    const double us = MicrosSince(start);
    phase.latencies_ms.push_back(us / 1000.0);
    phase.op_s += us / 1e6;
    if (!ok) ++phase.failed;
  }
  if (trace != nullptr) {
    trace->op_us += phase.op_s * 1e6;
    trace->ops += phase.latencies_ms.size();
  }
  return phase;
}

// Nearest-rank percentile and the number of samples beyond it. Each
// workload fixes its tail percentile (Workload::tail_percentile) rather
// than picking the highest one with ten samples beyond it per run: a faster
// program would complete more ops, move to a higher percentile and read as
// a tail regression.
struct Tail {
  double value_ms = 0.0;
  size_t beyond = 0;
};

Tail TailOf(std::vector<double> latencies, double percentile) {
  std::sort(latencies.begin(), latencies.end());
  const size_t n = latencies.size();
  const double exact_rank = percentile / 100.0 * static_cast<double>(n);
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(exact_rank)), 1, n);
  return Tail{latencies[rank - 1], n - rank};
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Metrics keep every digit: %.17g. A NaN or infinite value is a broken
// measurement; it is remembered, and the run then fails without a result.
class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) non_finite_.push_back(name);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += JsonString(name) + ": {\"value\": " + buffer +
             ", \"unit\": " + JsonString(unit) + "}";
  }
  std::string str() const { return "{" + body_ + "}"; }
  const std::vector<std::string>& non_finite() const { return non_finite_; }

 private:
  std::string body_;
  std::vector<std::string> non_finite_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      args->smoke = true;
    } else if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "1") == 0;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <train-pipeline|serve-cold|"
                 "whatif-advise> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke]\n",
                 argv[0]);
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  const Sizes sizes = args.smoke ? SmokeSizes() : Sizes();
  if (MakeWorkload(args.workload, sizes, args.seed) == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  // Setup runs several times on fresh objects; setup_s is the median. The
  // last workload object is the one measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  std::vector<double> corpus_ms;
  for (size_t i = 0; i < sizes.setup_repeats; ++i) {
    workload.reset();
    // Hand the previous setup's memory back, so peak_rss_mb is one setup's
    // peak rather than whatever the allocator kept from earlier ones.
    malloc_trim(0);
    workload = MakeWorkload(args.workload, sizes, args.seed);
    const Clock::time_point start = Clock::now();
    workload->Setup();
    setup_s.push_back(MicrosSince(start) / 1e6);
    corpus_ms.push_back(workload->inputs().corpus_ms);
  }
  int64_t attempted = 0;
  int64_t failed = workload->Prepare();
  attempted += 1;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  MetricsJson metrics;
  std::string detail;
  if (!args.trace) {
    Phase phase = RunPhase(workload.get(), args.seconds, nullptr);
    attempted += static_cast<int64_t>(phase.latencies_ms.size());
    failed += phase.failed;
    const int final_failed = workload->FinalCheck();
    attempted += 1;
    failed += final_failed;
    const Tail tail =
        TailOf(phase.latencies_ms, workload->tail_percentile());
    const train::QErrorStats q = workload->qerrors();
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("ops_per_s",
                static_cast<double>(phase.latencies_ms.size()) / phase.op_s,
                "1/s");
    metrics.Add("op_p50_ms", Median(phase.latencies_ms), "ms");
    metrics.Add("op_tail_ms", tail.value_ms, "ms");
    metrics.Add("ok_ratio",
                static_cast<double>(attempted - failed) /
                    static_cast<double>(attempted),
                "ratio");
    metrics.Add("qerror_p50", q.median, "ratio");
    metrics.Add("qerror_p95", q.p95, "ratio");
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"detail\": {\"ops\": %zu, \"tail_percentile\": %g, "
                  "\"tail_samples_beyond\": %zu, \"failed_ratio\": %.6g, "
                  "\"setup_s_runs\": %zu}}",
                  phase.latencies_ms.size(), workload->tail_percentile(),
                  tail.beyond,
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  setup_s.size());
    detail = buffer;
  } else {
    // Untraced half, then traced half: their throughput ratio is the
    // tracing overhead.
    Phase plain = RunPhase(workload.get(), args.seconds / 2, nullptr);
    TraceTotals trace;
    registry.set_enabled(true);
    const RegistryReading before = ReadRegistry();
    Phase traced = RunPhase(workload.get(), args.seconds / 2, &trace);
    const RegistryReading d = Delta(ReadRegistry(), before);
    registry.set_enabled(false);
    attempted += static_cast<int64_t>(plain.latencies_ms.size() +
                                      traced.latencies_ms.size());
    failed += plain.failed + traced.failed;
    attempted += 1;
    failed += workload->FinalCheck();

    const Probes probes = workload->Attribute(d, &trace);
    const double ops = static_cast<double>(trace.ops);
    const double plans = std::max<double>(1.0, static_cast<double>(d.plans));
    const double lookups = static_cast<double>(d.cache_hits + d.cache_misses);
    metrics.Add("datagen.corpus_ms", Median(corpus_ms), "ms");
    metrics.Add("optimizer.plan_us", d.plan_us / plans, "us");
    metrics.Add("optimizer.plans_per_op", static_cast<double>(d.plans) / ops,
                "count");
    metrics.Add("optimizer.join_candidates_per_plan",
                static_cast<double>(d.join_candidates) / plans, "count");
    metrics.Add("exec.execute_ms", d.exec_us / ops / 1000.0, "ms");
    metrics.Add("exec.rows_produced",
                static_cast<double>(d.rows_produced) / ops, "count");
    metrics.Add("runtime.simulate_ms",
                trace.collect_records / ops * probes.simulate_us / 1000.0,
                "ms");
    metrics.Add("plan.fingerprint_us", probes.fingerprint_us, "us");
    metrics.Add("zeroshot.cache_hit_ratio",
                lookups > 0 ? static_cast<double>(d.cache_hits) / lookups : 0.0,
                "ratio");
    metrics.Add("zeroshot.forward_records_per_op",
                static_cast<double>(d.cache_misses) / ops, "count");
    metrics.Add("featurize.us", probes.featurize_us, "us");
    metrics.Add("models.forward_us", probes.forward_us, "us");
    metrics.Add("train.ms", trace.train_us / ops / 1000.0, "ms");
    metrics.Add("train.epochs", trace.train_epochs / ops, "count");
    metrics.Add("train.record_epochs_per_s",
                trace.train_us > 0.0
                    ? trace.train_record_epochs / (trace.train_us / 1e6)
                    : 0.0,
                "1/s");
    metrics.Add("train.cpu_util",
                trace.train_us > 0.0 ? trace.train_cpu_s /
                                           (trace.train_us / 1e6)
                                     : 0.0,
                "ratio");
    metrics.Add("pool.tasks_run", static_cast<double>(d.tasks_run) / ops,
                "count");
    metrics.Add("pool.steal_latency_p95_us", BucketQuantile(d, 0.95), "us");
    const double window = static_cast<double>(trace.window_ops);
    metrics.Add("whatif.candidates_per_op",
                window > 0 ? trace.window_candidates / window : 0.0, "count");
    metrics.Add("whatif.queries_priced_per_op",
                window > 0 ? trace.window_queries_priced / window : 0.0,
                "count");
    for (size_t layer = 0; layer < kNumLayers; ++layer) {
      metrics.Add(std::string("self.") + kLayerNames[layer] + "_share",
                  trace.self_us[layer] / trace.op_us, "ratio");
    }
    // The self times sum to the span total, so coverage is the share of op
    // wall time inside the benchmark's spans; the estimated share is the
    // part whose layer rests on probe cost x call count.
    metrics.Add("self.coverage", trace.span_us / trace.op_us, "ratio");
    metrics.Add("self.estimated_share", trace.estimated_us / trace.op_us,
                "ratio");
    const double plain_ops_per_s =
        static_cast<double>(plain.latencies_ms.size()) / plain.op_s;
    const double traced_ops_per_s =
        static_cast<double>(traced.latencies_ms.size()) / traced.op_s;
    metrics.Add("trace.untraced_ops_per_s", plain_ops_per_s, "1/s");
    metrics.Add("trace.traced_ops_per_s", traced_ops_per_s, "1/s");
    metrics.Add("trace.overhead_ratio",
                1.0 - traced_ops_per_s / plain_ops_per_s, "ratio");
    detail = "{\"detail\": {\"traced_ops\": " + std::to_string(trace.ops) +
             ", \"untraced_ops\": " +
             std::to_string(plain.latencies_ms.size()) + "}}";
  }

  if (!metrics.non_finite().empty()) {
    for (const std::string& name : metrics.non_finite()) {
      std::fprintf(stderr, "metric %s is not a finite number\n", name.c_str());
    }
    return 1;
  }
  std::printf("{\"host\": {\"nproc\": %ld, \"cpu_model\": %s, "
              "\"pool_threads\": %zu, \"build_type\": %s, \"compiler\": %s, "
              "\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"smoke\": %d}}\n",
              sysconf(_SC_NPROCESSORS_ONLN), JsonString(CpuModel()).c_str(),
              ThreadPool::Global()->num_threads(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(PERFBENCH_COMPILER).c_str(),
              JsonString(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? 1 : 0);
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace zerodb::perfbench

int main(int argc, char** argv) { return zerodb::perfbench::Main(argc, argv); }
