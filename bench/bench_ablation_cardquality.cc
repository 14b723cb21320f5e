// Ablation B (paper Section 2.2, "Separation of Concerns"): the zero-shot
// model takes cardinalities from a separate data-driven estimator. How
// sensitive is it to the quality of that input? Evaluates the same trained
// model with exact cardinalities, the histogram estimates, and estimates
// corrupted with increasing multiplicative noise.

#include <cmath>

#include "bench_common.h"

namespace zerodb::bench {
namespace {

// Clones records, multiplying every node's estimated cardinality by
// lognormal noise of the given sigma (in natural-log space).
std::vector<train::QueryRecord> CorruptEstimates(
    const std::vector<train::QueryRecord>& records, double sigma,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<train::QueryRecord> corrupted;
  corrupted.reserve(records.size());
  for (const train::QueryRecord& record : records) {
    train::QueryRecord copy;
    copy.env = record.env;
    copy.db_name = record.db_name;
    copy.query = record.query;
    copy.plan = record.plan.Clone();
    copy.runtime_ms = record.runtime_ms;
    copy.opt_cost = record.opt_cost;
    copy.plan.root->VisitMutable([&](plan::PhysicalNode& node) {
      node.est_cardinality =
          std::max(1.0, node.est_cardinality * rng.LogNormal(0.0, sigma));
    });
    corrupted.push_back(std::move(copy));
  }
  return corrupted;
}

int Run(const BenchOptions& options) {
  ExperimentContext context =
      BuildContext(/*need_exact_model=*/true, /*need_baseline_pool=*/false);
  std::fprintf(stderr, "[eval] synthetic workload...\n");
  std::vector<train::QueryRecord> eval =
      CollectEvalWorkload(context, workload::BenchmarkWorkload::kSynthetic);
  std::vector<double> truth = TruthOf(eval);

  std::printf("Ablation: sensitivity of the zero-shot model to cardinality "
              "input quality\n(synthetic benchmark on unseen IMDB, %zu eval "
              "queries, scale=%s)\n\n",
              eval.size(), context.scale.name);
  std::printf("%-34s %10s %10s %10s\n", "cardinality input", "median", "p95",
              "max");
  PrintRule(68);

  // Upper bound: exact cardinalities (its own model, as in Table 1).
  train::QErrorStats exact = train::ComputeQErrors(
      context.zero_shot_exact->PredictMs(train::MakeView(eval)), truth);
  std::printf("%-34s %10.2f %10.2f %10.2f\n", "exact (upper baseline)",
              exact.median, exact.p95, exact.max);

  // Deployable: histogram estimates.
  train::QErrorStats estimated = train::ComputeQErrors(
      context.zero_shot_estimated->PredictMs(train::MakeView(eval)), truth);
  std::printf("%-34s %10.2f %10.2f %10.2f\n", "histogram estimates",
              estimated.median, estimated.p95, estimated.max);

  // Corrupted estimates.
  for (double sigma : {0.5, 1.0, 2.0}) {
    auto corrupted = CorruptEstimates(eval, sigma, 555);
    train::QErrorStats stats = train::ComputeQErrors(
        context.zero_shot_estimated->PredictMs(train::MakeView(corrupted)),
        truth);
    std::printf("estimates x lognormal(sigma=%.1f)  %12.2f %10.2f %10.2f\n",
                sigma, stats.median, stats.p95, stats.max);
  }
  PrintRule(68);
  std::printf("Expectation: graceful degradation — accuracy decays smoothly "
              "with worse\ncardinalities instead of collapsing (separation "
              "of concerns pays off).\n");

  return MaybeWriteBenchMetrics(
      options, "bench_ablation_cardquality", context.scale.name,
      {{"zero_shot_estimated", &context.zero_shot_estimated->train_result()},
       {"zero_shot_exact", &context.zero_shot_exact->train_result()}},
      context.zero_shot_estimated.get());
}

}  // namespace
}  // namespace zerodb::bench

int main(int argc, char** argv) {
  return zerodb::bench::Run(zerodb::bench::ParseBenchArgs(argc, argv));
}
