#ifndef ZERODB_BENCH_BENCH_COMMON_H_
#define ZERODB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "datagen/corpus.h"
#include "exec/executor.h"
#include "models/e2e_model.h"
#include "models/mscn_model.h"
#include "models/scaled_cost_model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/trace_event.h"
#include "optimizer/optimizer.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "train/trainer.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"
#include "zeroshot/estimator.h"

namespace zerodb::bench {

/// Command-line options shared by every bench_* binary.
struct BenchOptions {
  /// When non-empty, the bench writes one JSON metrics artifact here on
  /// exit: global registry counters/histograms, a per-operator span tree of
  /// a sample query, and per-epoch loss curves of any model trained.
  std::string metrics_out;
  /// When non-empty, the bench records a cross-thread timeline (global
  /// TraceEventRecorder) and writes Chrome trace-event JSON here on exit —
  /// loadable in chrome://tracing or ui.perfetto.dev.
  std::string trace_out;
  /// When non-empty, the bench writes the global registry in Prometheus text
  /// exposition format here on exit.
  std::string prom_out;
  /// Global-pool size (--threads=N). 0 keeps the default (ZERODB_THREADS
  /// env, else hardware_concurrency).
  size_t threads = 0;
  /// Serving knobs, forwarded into ZeroShotConfig by benches that build an
  /// estimator. --batch_size=N chunks each batched forward pass into N-plan
  /// slices (0 = one pass over all cache misses); --cache_capacity=N sizes
  /// the plan-fingerprint prediction cache (0 disables caching entirely).
  size_t batch_size = 0;
  size_t cache_capacity = 4096;
};

/// Parses one --threads value and installs it as the global-pool size.
/// Must run before the first ThreadPool::Global() use, i.e. before any
/// corpus/collection/training work.
inline size_t ApplyThreadsFlag(const std::string& value) {
  size_t threads =
      static_cast<size_t>(std::strtoul(value.c_str(), nullptr, 10));
  if (threads == 0) {
    std::fprintf(stderr, "invalid --threads value: %s\n", value.c_str());
    std::exit(2);
  }
  ThreadPool::SetGlobalThreads(threads);
  return threads;
}

/// Parses bench flags (--metrics_out=<path>, --trace_out=<path>,
/// --prom_out=<path>, --threads=<N>), exiting with usage on unknown
/// arguments. Requesting a metrics or Prometheus artifact enables the global
/// MetricsRegistry; requesting a trace installs + enables the global
/// TraceEventRecorder, so the instrumented layers start recording.
inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions options;
  const std::string prefix = "--metrics_out=";
  const std::string trace_prefix = "--trace_out=";
  const std::string prom_prefix = "--prom_out=";
  const std::string threads_prefix = "--threads=";
  const std::string batch_prefix = "--batch_size=";
  const std::string cache_prefix = "--cache_capacity=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      options.metrics_out = arg.substr(prefix.size());
    } else if (arg == "--metrics_out" && i + 1 < argc) {
      options.metrics_out = argv[++i];
    } else if (arg.rfind(trace_prefix, 0) == 0) {
      options.trace_out = arg.substr(trace_prefix.size());
    } else if (arg == "--trace_out" && i + 1 < argc) {
      options.trace_out = argv[++i];
    } else if (arg.rfind(prom_prefix, 0) == 0) {
      options.prom_out = arg.substr(prom_prefix.size());
    } else if (arg == "--prom_out" && i + 1 < argc) {
      options.prom_out = argv[++i];
    } else if (arg.rfind(threads_prefix, 0) == 0) {
      options.threads = ApplyThreadsFlag(arg.substr(threads_prefix.size()));
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = ApplyThreadsFlag(argv[++i]);
    } else if (arg.rfind(batch_prefix, 0) == 0) {
      options.batch_size = static_cast<size_t>(
          std::strtoul(arg.substr(batch_prefix.size()).c_str(), nullptr, 10));
    } else if (arg == "--batch_size" && i + 1 < argc) {
      options.batch_size =
          static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind(cache_prefix, 0) == 0) {
      options.cache_capacity = static_cast<size_t>(
          std::strtoul(arg.substr(cache_prefix.size()).c_str(), nullptr, 10));
    } else if (arg == "--cache_capacity" && i + 1 < argc) {
      options.cache_capacity =
          static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\nusage: %s [--metrics_out=<path>] "
                   "[--trace_out=<path>] [--prom_out=<path>] [--threads=<N>] "
                   "[--batch_size=<N>] [--cache_capacity=<N>]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  if (!options.metrics_out.empty() || !options.prom_out.empty()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  if (!options.trace_out.empty()) {
    obs::TraceEventRecorder::InstallGlobal();
  }
  return options;
}

/// Plans + executes one generated query on `env` into a throwaway recorder
/// and returns its trace-event JSON (one "exec" event per physical operator).
inline StatusOr<obs::JsonValue> TraceSampleQuery(
    const datagen::DatabaseEnv& env, uint64_t seed = 20220101) {
  workload::QueryGenerator generator(&env, workload::TrainingWorkloadConfig(),
                                     seed);
  optimizer::Planner planner(env.db.get(), &env.stats);
  for (int attempt = 0; attempt < 64; ++attempt) {
    plan::QuerySpec query = generator.Next();
    auto plan = planner.Plan(query);
    if (!plan.ok()) continue;
    obs::TraceEventRecorder recorder;
    exec::ExecutorOptions exec_options;
    exec_options.recorder = &recorder;
    exec::Executor executor(env.db.get(), exec_options);
    auto result = executor.Execute(&*plan);
    if (!result.ok()) continue;
    return recorder.ToJson();
  }
  return Status::Internal("no executable sample query found on " +
                          env.db->name());
}

/// One named training run to embed in the artifact (pointer may be null).
using NamedTrainResult = std::pair<std::string, const train::TrainResult*>;

/// Writes the bench's observability artifacts: the JSON metrics artifact
/// (--metrics_out: registry dump + sample-query trace on `env` + training
/// loss curves + the estimator's quality section), the Prometheus text
/// exposition (--prom_out) and the cross-thread timeline (--trace_out).
/// Each flag is handled independently. Returns the process exit code (0, or
/// 1 when any write failed), so mains can `return MaybeWriteBenchMetrics(...)`.
inline int MaybeWriteBenchMetrics(
    const BenchOptions& options, const std::string& bench_name,
    const char* scale_name, const datagen::DatabaseEnv& env,
    const std::vector<NamedTrainResult>& training_runs = {},
    const zeroshot::ZeroShotEstimator* estimator = nullptr) {
  int exit_code = 0;
  if (!options.metrics_out.empty()) {
    obs::MetricsArtifact artifact(bench_name);
    artifact.AddLabel("scale", scale_name);
    artifact.SetRegistry(&obs::MetricsRegistry::Global());
    if (estimator != nullptr) {
      artifact.SetQualityMonitor(estimator->quality_monitor());
    }
    StatusOr<obs::JsonValue> trace = TraceSampleQuery(env);
    if (trace.ok()) {
      artifact.AddTrace("sample_query:" + env.db->name(), std::move(*trace));
    } else {
      std::fprintf(stderr, "[metrics] sample trace failed: %s\n",
                   trace.status().ToString().c_str());
    }
    for (const auto& [name, result] : training_runs) {
      if (result != nullptr) artifact.AddTrainingRun(name, result->history);
    }
    Status status = artifact.WriteTo(options.metrics_out);
    if (status.ok()) {
      std::fprintf(stderr, "[metrics] wrote %s\n", options.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "[metrics] write failed: %s\n",
                   status.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!options.prom_out.empty()) {
    Status status =
        obs::WritePrometheusTo(obs::MetricsRegistry::Global(), options.prom_out);
    if (status.ok()) {
      std::fprintf(stderr, "[metrics] wrote %s\n", options.prom_out.c_str());
    } else {
      std::fprintf(stderr, "[metrics] prometheus write failed: %s\n",
                   status.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!options.trace_out.empty()) {
    obs::TraceEventRecorder* recorder = obs::TraceEventRecorder::Global();
    if (recorder != nullptr) {
      Status status = recorder->WriteTo(options.trace_out);
      if (status.ok()) {
        std::fprintf(stderr, "[metrics] wrote %s\n", options.trace_out.c_str());
      } else {
        std::fprintf(stderr, "[metrics] trace write failed: %s\n",
                     status.ToString().c_str());
        exit_code = 1;
      }
    }
  }
  return exit_code;
}

/// Experiment scale, selected by the ZERODB_SCALE environment variable
/// ("small" default, "full"). The paper used 19 databases x 5,000 queries
/// and workload-driven training sets up to 50,000; "small" shrinks
/// everything to single-core-friendly sizes while preserving the sweep
/// structure, "full" approaches the paper's sizes.
struct ScaleConfig {
  double corpus_scale = 0.12;   ///< row-count multiplier for the 19 DBs
  double imdb_scale = 0.12;
  size_t num_training_dbs = 19;
  size_t queries_per_database = 200;   ///< zero-shot corpus workload
  std::vector<size_t> baseline_training_sizes = {100, 250, 500, 1000, 2000};
  size_t eval_queries = 200;           ///< per evaluation benchmark
  size_t max_epochs = 25;
  size_t hidden_dim = 64;
  const char* name = "small";
};

inline ScaleConfig GetScaleConfig() {
  ScaleConfig config;
  const char* scale = std::getenv("ZERODB_SCALE");
  if (scale != nullptr && std::strcmp(scale, "full") == 0) {
    config.corpus_scale = 0.5;
    config.imdb_scale = 0.5;
    config.queries_per_database = 1000;
    config.baseline_training_sizes = {100, 500, 1000, 2500, 5000, 10000};
    config.eval_queries = 500;
    config.max_epochs = 60;
    config.name = "full";
  }
  return config;
}

/// Everything the Figure-4 / Table-1 experiments share: the 19-database
/// training corpus, the held-out IMDB-like database, the two zero-shot
/// models (estimated / exact cardinalities), and an IMDB training pool for
/// the workload-driven baselines.
struct ExperimentContext {
  ScaleConfig scale;
  std::vector<datagen::DatabaseEnv> corpus;
  datagen::DatabaseEnv imdb;
  std::unique_ptr<zeroshot::ZeroShotEstimator> zero_shot_estimated;
  std::unique_ptr<zeroshot::ZeroShotEstimator> zero_shot_exact;
  std::vector<train::QueryRecord> imdb_training_pool;  ///< for baselines
};

inline zeroshot::ZeroShotConfig MakeZeroShotConfig(
    const ScaleConfig& scale, featurize::CardinalityMode mode,
    const BenchOptions* options = nullptr) {
  zeroshot::ZeroShotConfig config;
  config.queries_per_database = scale.queries_per_database;
  config.trainer.max_epochs = scale.max_epochs;
  config.model.hidden_dim = scale.hidden_dim;
  config.model.cardinality_mode = mode;
  if (options != nullptr) {
    config.serve_batch_size = options->batch_size;
    config.cache.capacity = options->cache_capacity;
  }
  return config;
}

/// Builds the full context. `need_exact_model` / `need_baseline_pool` skip
/// work a particular bench does not use; `options` (when given) forwards
/// the --batch_size / --cache_capacity serving knobs into both estimators.
inline ExperimentContext BuildContext(bool need_exact_model = true,
                                      bool need_baseline_pool = true,
                                      const BenchOptions* options = nullptr) {
  SetLogLevel(LogLevel::kWarning);  // keep bench stdout clean
  ExperimentContext context;
  context.scale = GetScaleConfig();
  std::fprintf(stderr, "[setup] scale=%s: building corpus (%zu dbs)...\n",
               context.scale.name, context.scale.num_training_dbs);
  context.corpus = datagen::MakeTrainingCorpus(
      42, context.scale.num_training_dbs, context.scale.corpus_scale);
  context.imdb = datagen::MakeImdbEnv(7, context.scale.imdb_scale);

  std::fprintf(stderr, "[setup] collecting corpus workloads + training "
                       "zero-shot (estimated card.)...\n");
  auto est_config = MakeZeroShotConfig(
      context.scale, featurize::CardinalityMode::kEstimated, options);
  std::vector<train::QueryRecord> corpus_records =
      zeroshot::CollectCorpusRecords(context.corpus, est_config);
  context.zero_shot_estimated = std::make_unique<zeroshot::ZeroShotEstimator>(
      zeroshot::ZeroShotEstimator::TrainFromRecords(std::move(corpus_records),
                                                    est_config));
  if (need_exact_model) {
    std::fprintf(stderr, "[setup] training zero-shot (exact card.)...\n");
    auto exact_config = MakeZeroShotConfig(
        context.scale, featurize::CardinalityMode::kExact, options);
    // Reuse the already-collected (and executed) records of the first model.
    std::vector<train::QueryRecord> copies;
    for (const train::QueryRecord& record :
         context.zero_shot_estimated->training_records()) {
      train::QueryRecord copy;
      copy.env = record.env;
      copy.db_name = record.db_name;
      copy.query = record.query;
      copy.plan = record.plan.Clone();
      copy.runtime_ms = record.runtime_ms;
      copy.opt_cost = record.opt_cost;
      copies.push_back(std::move(copy));
    }
    context.zero_shot_exact = std::make_unique<zeroshot::ZeroShotEstimator>(
        zeroshot::ZeroShotEstimator::TrainFromRecords(std::move(copies),
                                                      exact_config));
  }
  if (need_baseline_pool) {
    std::fprintf(stderr, "[setup] collecting IMDB training pool for "
                         "workload-driven baselines...\n");
    size_t pool_size = context.scale.baseline_training_sizes.back();
    context.imdb_training_pool = train::CollectRandomWorkload(
        context.imdb, workload::TrainingWorkloadConfig(), pool_size, 4242,
        train::CollectOptions());
  }
  return context;
}

/// Collects an executed evaluation workload on the unseen IMDB database.
inline std::vector<train::QueryRecord> CollectEvalWorkload(
    const ExperimentContext& context, workload::BenchmarkWorkload workload) {
  auto queries = workload::MakeBenchmark(workload, context.imdb,
                                         context.scale.eval_queries, 1337);
  return train::CollectRecords(context.imdb, queries, train::CollectOptions());
}

inline std::vector<double> TruthOf(const std::vector<train::QueryRecord>& records) {
  std::vector<double> truth;
  truth.reserve(records.size());
  for (const auto& record : records) truth.push_back(record.runtime_ms);
  return truth;
}

/// Trains an E2E / MSCN baseline on the first `n` pool records.
inline train::QErrorStats EvalNeuralBaseline(
    models::NeuralCostModel* model,
    const std::vector<train::QueryRecord>& pool, size_t n,
    const std::vector<train::QueryRecord>& eval, size_t max_epochs) {
  std::vector<const train::QueryRecord*> training;
  for (size_t i = 0; i < std::min(n, pool.size()); ++i) {
    training.push_back(&pool[i]);
  }
  train::TrainerOptions trainer;
  trainer.max_epochs = max_epochs;
  train::TrainModel(model, training, trainer);
  auto predictions = model->PredictMs(train::MakeView(eval));
  return train::ComputeQErrors(predictions, TruthOf(eval));
}

inline void PrintRule(size_t width) {
  for (size_t i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace zerodb::bench

#endif  // ZERODB_BENCH_BENCH_COMMON_H_
