// Ablation A (paper Section 2.2, "Training Data and Uncertainty"): how many
// training databases does a zero-shot model need? Sweeps the number of
// training databases and reports Q-errors on the unseen IMDB database.

#include "bench_common.h"

namespace zerodb::bench {
namespace {

int Run(const BenchOptions& options) {
  SetLogLevel(LogLevel::kWarning);
  ScaleConfig scale = GetScaleConfig();
  std::fprintf(stderr, "[setup] corpus + eval workload...\n");
  auto corpus = datagen::MakeTrainingCorpus(42, scale.num_training_dbs,
                                            scale.corpus_scale);
  auto imdb = datagen::MakeImdbEnv(7, scale.imdb_scale);

  auto config =
      MakeZeroShotConfig(scale, featurize::CardinalityMode::kEstimated);
  std::vector<train::QueryRecord> all_records =
      zeroshot::CollectCorpusRecords(corpus, config);

  auto eval_queries = workload::MakeBenchmark(
      workload::BenchmarkWorkload::kSynthetic, imdb, scale.eval_queries, 1337);
  auto eval = train::CollectRecords(imdb, eval_queries, train::CollectOptions());
  std::vector<double> truth = TruthOf(eval);
  auto eval_view = train::MakeView(eval);

  std::printf("Ablation: zero-shot accuracy vs number of training databases\n");
  std::printf("(synthetic benchmark on unseen IMDB, %zu eval queries, "
              "scale=%s)\n\n",
              eval.size(), scale.name);
  std::printf("%8s %12s %10s %10s %10s\n", "#dbs", "#records", "median",
              "p95", "max");
  PrintRule(56);

  train::TrainResult last_train_result;
  for (size_t num_dbs : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                         scale.num_training_dbs}) {
    if (num_dbs > corpus.size()) break;
    // Keep records of the first `num_dbs` databases.
    std::vector<train::QueryRecord> subset;
    for (const train::QueryRecord& record : all_records) {
      for (size_t d = 0; d < num_dbs; ++d) {
        if (record.db_name == corpus[d].db->name()) {
          train::QueryRecord copy;
          copy.env = record.env;
          copy.db_name = record.db_name;
          copy.query = record.query;
          copy.plan = record.plan.Clone();
          copy.runtime_ms = record.runtime_ms;
          copy.opt_cost = record.opt_cost;
          subset.push_back(std::move(copy));
          break;
        }
      }
    }
    size_t record_count = subset.size();
    zeroshot::ZeroShotEstimator estimator =
        zeroshot::ZeroShotEstimator::TrainFromRecords(std::move(subset),
                                                      config);
    last_train_result = estimator.train_result();
    train::QErrorStats stats =
        train::ComputeQErrors(estimator.PredictMs(eval_view), truth);
    std::printf("%8zu %12zu %10.2f %10.2f %10.2f\n", num_dbs, record_count,
                stats.median, stats.p95, stats.max);
  }
  PrintRule(56);
  std::printf("Expectation (paper): accuracy improves and stabilizes as "
              "databases are added;\na handful of diverse databases already "
              "generalizes.\n");

  return MaybeWriteBenchMetrics(options, "bench_ablation_numdbs", scale.name,
                                {{"zero_shot_all_dbs", &last_train_result}});
}

}  // namespace
}  // namespace zerodb::bench

int main(int argc, char** argv) {
  return zerodb::bench::Run(zerodb::bench::ParseBenchArgs(argc, argv));
}
