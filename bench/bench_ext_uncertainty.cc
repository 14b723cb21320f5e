// Extension experiment (paper Section 2.2, "Training Data and Uncertainty"):
// ensemble-based uncertainty estimates. Sweeping the uncertainty threshold
// trades coverage (fraction of queries the zero-shot model answers itself)
// against accuracy on the retained queries; flagged queries fall back to the
// scaled-optimizer-cost heuristic, as the paper proposes.

#include "bench_common.h"
#include "zeroshot/ensemble.h"

namespace zerodb::bench {
namespace {

int Run(const BenchOptions& options) {
  SetLogLevel(LogLevel::kWarning);
  ScaleConfig scale = GetScaleConfig();
  std::fprintf(stderr, "[setup] corpus and ensemble (3 members)...\n");
  auto corpus = datagen::MakeTrainingCorpus(42, scale.num_training_dbs,
                                            scale.corpus_scale);
  auto imdb = datagen::MakeImdbEnv(7, scale.imdb_scale);

  zeroshot::EnsembleConfig config;
  config.ensemble_size = 3;
  config.base = MakeZeroShotConfig(scale, featurize::CardinalityMode::kEstimated);
  auto ensemble = zeroshot::EnsembleEstimator::Train(corpus, config);

  std::fprintf(stderr, "[setup] evaluation workload + fallback model...\n");
  auto queries = workload::MakeBenchmark(
      workload::BenchmarkWorkload::kSynthetic, imdb, scale.eval_queries, 1337);
  auto eval = train::CollectRecords(imdb, queries, train::CollectOptions());
  auto eval_view = train::MakeView(eval);
  std::vector<double> truth = TruthOf(eval);

  // Fallback heuristic fit on a small IMDB sample (like calibrating the
  // optimizer's cost units, much cheaper than training a model).
  auto fallback_pool = train::CollectRandomWorkload(
      imdb, workload::TrainingWorkloadConfig(), 100, 777,
      train::CollectOptions());
  models::ScaledOptCostModel fallback;
  fallback.Fit(train::MakeView(fallback_pool));

  auto predictions = ensemble.Predict(eval_view);

  std::printf("Ablation: ensemble uncertainty — coverage vs accuracy on "
              "unseen IMDB\n(%zu eval queries, %zu-member ensemble, "
              "scale=%s)\n\n",
              eval.size(), ensemble.size(), scale.name);
  std::printf("%10s %10s %16s %16s %14s\n", "threshold", "coverage",
              "retained median", "retained p95", "combined p95");
  PrintRule(72);

  for (double threshold : {1.03, 1.05, 1.08, 1.12, 1.2, 1e9}) {
    std::vector<double> retained_pred;
    std::vector<double> retained_truth;
    std::vector<double> combined_pred;
    auto fallback_values = fallback.PredictMs(eval_view);
    for (size_t q = 0; q < predictions.size(); ++q) {
      if (predictions[q].spread_factor <= threshold) {
        retained_pred.push_back(predictions[q].runtime_ms.value());
        retained_truth.push_back(truth[q]);
        combined_pred.push_back(predictions[q].runtime_ms.value());
      } else {
        combined_pred.push_back(fallback_values[q].value());
      }
    }
    double coverage =
        static_cast<double>(retained_pred.size()) / predictions.size();
    train::QErrorStats retained =
        train::ComputeQErrors(retained_pred, retained_truth);
    train::QErrorStats combined = train::ComputeQErrors(combined_pred, truth);
    std::string label = threshold > 1e6 ? "none" : FormatDouble(threshold, 2);
    std::printf("%10s %9.0f%% %16.2f %16.2f %14.2f\n", label.c_str(),
                100.0 * coverage, retained.median, retained.p95, combined.p95);
  }
  PrintRule(72);
  std::printf("Expectation: low thresholds keep only confident predictions "
              "(tighter retained\ntails); uncertain queries fall back to the "
              "classical heuristic.\n");

  std::vector<NamedTrainResult> training_runs;
  const auto& member_results = ensemble.train_results();
  for (size_t m = 0; m < member_results.size(); ++m) {
    training_runs.emplace_back("ensemble_member_" + std::to_string(m),
                               &member_results[m]);
  }
  return MaybeWriteBenchMetrics(options, "bench_ext_uncertainty", scale.name,
                                training_runs);
}

}  // namespace
}  // namespace zerodb::bench

int main(int argc, char** argv) {
  return zerodb::bench::Run(zerodb::bench::ParseBenchArgs(argc, argv));
}
