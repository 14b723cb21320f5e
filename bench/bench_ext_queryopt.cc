// Extension experiment (paper Section 4.2): zero-shot query optimization,
// the "initial naive approach" — use the zero-shot cost model to pick among
// candidate plans (Bao-style hint sets). Compares, over a workload on the
// unseen IMDB database, the total TRUE runtime of:
//   (a) the classical optimizer's plan choice,
//   (b) the plan the zero-shot model picks,
//   (c) the best candidate in hindsight (oracle).

#include "bench_common.h"
#include "zeroshot/plan_selection.h"

namespace zerodb::bench {
namespace {

int Run(const BenchOptions& options) {
  ExperimentContext context =
      BuildContext(/*need_exact_model=*/false, /*need_baseline_pool=*/false);
  datagen::DatabaseEnv& imdb = context.imdb;

  // Secondary indexes make plan choice interesting (index vs hash plans).
  Rng index_rng(99);
  datagen::AddDefaultIndexes(imdb.db.get(), &index_rng,
                             /*secondary_index_prob=*/0.5);
  imdb.RefreshStats();

  exec::Executor executor(imdb.db.get());
  runtime::RuntimeSimulator simulator;
  workload::QueryGenerator generator(&imdb,
                                     workload::TrainingWorkloadConfig(), 31337);

  double optimizer_total = 0.0;
  double model_total = 0.0;
  double oracle_total = 0.0;
  size_t queries = 0;
  size_t model_beats_optimizer = 0;
  size_t optimizer_beats_model = 0;
  const size_t target = std::max<size_t>(context.scale.eval_queries / 2, 50);

  while (queries < target) {
    plan::QuerySpec query = generator.Next();
    auto candidates = zeroshot::EnumerateCandidatePlans(imdb, query);
    if (candidates.size() < 2) continue;  // no real choice to make

    // True runtime of each candidate.
    std::vector<double> true_ms;
    bool all_ok = true;
    for (plan::PhysicalPlan& candidate : candidates) {
      auto result = executor.Execute(&candidate);
      if (!result.ok()) {
        all_ok = false;
        break;
      }
      true_ms.push_back(simulator.PlanMs(candidate, *result));
    }
    if (!all_ok) continue;

    // (a) classical optimizer: candidate with the lowest estimated cost.
    size_t optimizer_pick = 0;
    for (size_t c = 1; c < candidates.size(); ++c) {
      if (candidates[c].root->est_cost <
          candidates[optimizer_pick].root->est_cost) {
        optimizer_pick = c;
      }
    }
    // (b) zero-shot model pick.
    auto choice = zeroshot::ChoosePlanWithModel(
        context.zero_shot_estimated.get(), imdb, query);
    if (!choice.ok()) continue;
    size_t model_pick = choice->candidate_index;
    // (c) oracle.
    size_t oracle_pick = 0;
    for (size_t c = 1; c < true_ms.size(); ++c) {
      if (true_ms[c] < true_ms[oracle_pick]) oracle_pick = c;
    }

    optimizer_total += true_ms[optimizer_pick];
    model_total += true_ms[model_pick];
    oracle_total += true_ms[oracle_pick];
    if (true_ms[model_pick] < true_ms[optimizer_pick] - 1e-9) {
      ++model_beats_optimizer;
    } else if (true_ms[optimizer_pick] < true_ms[model_pick] - 1e-9) {
      ++optimizer_beats_model;
    }
    ++queries;
  }

  std::printf("Zero-shot query optimization (Section 4.2 naive approach) on "
              "unseen IMDB\n%zu queries with >= 2 structurally distinct "
              "candidate plans, scale=%s\n\n",
              queries, context.scale.name);
  std::printf("%-42s %14s %10s\n", "plan chooser", "total runtime",
              "vs oracle");
  PrintRule(70);
  std::printf("%-42s %11.1f ms %9.3fx\n",
              "classical optimizer (analytical cost)", optimizer_total,
              optimizer_total / oracle_total);
  std::printf("%-42s %11.1f ms %9.3fx\n",
              "zero-shot model (never saw this DB)", model_total,
              model_total / oracle_total);
  std::printf("%-42s %11.1f ms %9.3fx\n", "oracle (best candidate)",
              oracle_total, 1.0);
  PrintRule(70);
  std::printf("model picked strictly better plan: %zu queries; optimizer "
              "strictly better: %zu; ties: %zu\n",
              model_beats_optimizer, optimizer_beats_model,
              queries - model_beats_optimizer - optimizer_beats_model);

  return MaybeWriteBenchMetrics(
      options, "bench_ext_queryopt", context.scale.name,
      {{"zero_shot_estimated", &context.zero_shot_estimated->train_result()}},
      context.zero_shot_estimated.get());
}

}  // namespace
}  // namespace zerodb::bench

int main(int argc, char** argv) {
  return zerodb::bench::Run(zerodb::bench::ParseBenchArgs(argc, argv));
}
