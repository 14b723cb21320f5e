#ifndef ZERODB_BENCH_FIG4_COMMON_H_
#define ZERODB_BENCH_FIG4_COMMON_H_

#include "bench_common.h"

namespace zerodb::bench {

/// Runs one panel of the paper's Figure 4 for the given benchmark workload:
/// median Q-error of the workload-driven baselines (E2E, MSCN, scaled
/// optimizer cost) as a function of the number of IMDB training queries,
/// against the flat zero-shot lines (estimated / exact cardinalities) that
/// used no IMDB queries at all.
inline int RunFigure4(workload::BenchmarkWorkload which,
                      const BenchOptions& options = BenchOptions()) {
  ExperimentContext context = BuildContext();
  std::fprintf(stderr, "[setup] collecting evaluation workload...\n");
  std::vector<train::QueryRecord> eval = CollectEvalWorkload(context, which);
  std::vector<double> truth = TruthOf(eval);
  auto eval_view = train::MakeView(eval);

  // Zero-shot lines (no IMDB training queries).
  train::QErrorStats zs_estimated = train::ComputeQErrors(
      context.zero_shot_estimated->PredictMs(eval_view), truth);
  train::QErrorStats zs_exact = train::ComputeQErrors(
      context.zero_shot_exact->PredictMs(eval_view), truth);

  std::printf("Figure 4 (%s benchmark on unseen IMDB, %zu eval queries, "
              "scale=%s)\n",
              workload::BenchmarkWorkloadName(which), eval.size(),
              context.scale.name);
  std::printf("Median Q-error vs #IMDB training queries of the "
              "workload-driven models.\n");
  std::printf("Zero-shot models used 0 IMDB queries (trained on %zu other "
              "databases).\n\n",
              context.corpus.size());
  std::printf("%12s %10s %10s %14s %18s %16s\n", "train-queries", "E2E",
              "MSCN", "ScaledOptCost", "ZeroShot(est.)", "ZeroShot(exact)");
  PrintRule(86);

  for (size_t n : context.scale.baseline_training_sizes) {
    if (n > context.imdb_training_pool.size()) break;
    models::E2ECostModel::Options e2e_options;
    e2e_options.hidden_dim = context.scale.hidden_dim;
    models::E2ECostModel e2e(e2e_options);
    train::QErrorStats e2e_stats = EvalNeuralBaseline(
        &e2e, context.imdb_training_pool, n, eval, context.scale.max_epochs);

    models::MscnCostModel::Options mscn_options;
    mscn_options.hidden_dim = context.scale.hidden_dim;
    models::MscnCostModel mscn(mscn_options);
    train::QErrorStats mscn_stats = EvalNeuralBaseline(
        &mscn, context.imdb_training_pool, n, eval, context.scale.max_epochs);

    models::ScaledOptCostModel scaled;
    std::vector<const train::QueryRecord*> fit_view;
    for (size_t i = 0; i < n; ++i) fit_view.push_back(&context.imdb_training_pool[i]);
    scaled.Fit(fit_view);
    train::QErrorStats scaled_stats =
        train::ComputeQErrors(scaled.PredictMs(eval_view), truth);

    std::printf("%12zu %10.2f %10.2f %14.2f %18.2f %16.2f\n", n,
                e2e_stats.median, mscn_stats.median, scaled_stats.median,
                zs_estimated.median, zs_exact.median);
  }
  PrintRule(86);
  std::printf("zero-shot (estimated card.): %s\n",
              zs_estimated.ToString().c_str());
  std::printf("zero-shot (exact card.):     %s\n", zs_exact.ToString().c_str());

  return MaybeWriteBenchMetrics(
      options,
      std::string("bench_fig4_") + workload::BenchmarkWorkloadName(which),
      context.scale.name,
      {{"zero_shot_estimated", &context.zero_shot_estimated->train_result()},
       {"zero_shot_exact", &context.zero_shot_exact->train_result()}},
      context.zero_shot_estimated.get());
}

}  // namespace zerodb::bench

#endif  // ZERODB_BENCH_FIG4_COMMON_H_
