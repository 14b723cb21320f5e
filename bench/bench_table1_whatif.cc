// Reproduces Table 1: Q-errors (median / 95th / max) of the zero-shot cost
// model with exact and estimated cardinalities on the Scale, Synthetic and
// JOB-light workloads, plus the "Index" What-If workload — queries evaluated
// under randomly created attribute indexes on the unseen IMDB database.

#include "bench_common.h"

namespace zerodb::bench {
namespace {

struct Row {
  std::string name;
  train::QErrorStats exact;
  train::QErrorStats estimated;
};

Row EvalRow(ExperimentContext* context, const std::string& name,
            const std::vector<train::QueryRecord>& eval) {
  Row row;
  row.name = name;
  std::vector<double> truth = TruthOf(eval);
  auto view = train::MakeView(eval);
  row.exact =
      train::ComputeQErrors(context->zero_shot_exact->PredictMs(view), truth);
  row.estimated = train::ComputeQErrors(
      context->zero_shot_estimated->PredictMs(view), truth);
  return row;
}

// Generates the Index workload: random attribute indexes are created on the
// unseen database, then only queries whose chosen plan actually uses one of
// the new indexes are kept (the paper's "index would exist for randomly
// selected attributes of queries").
std::vector<train::QueryRecord> CollectIndexWorkload(
    ExperimentContext* context) {
  datagen::DatabaseEnv& imdb = context->imdb;
  // Create a random but fixed set of attribute indexes.
  Rng rng(2024);
  datagen::AddDefaultIndexes(imdb.db.get(), &rng,
                             /*secondary_index_prob=*/0.5);
  imdb.RefreshStats();

  workload::WorkloadConfig config = workload::TrainingWorkloadConfig();
  workload::QueryGenerator generator(&imdb, config, 777);
  std::vector<plan::QuerySpec> queries;
  optimizer::Planner planner(imdb.db.get(), &imdb.stats);
  size_t attempts = 0;
  const size_t target = context->scale.eval_queries;
  while (queries.size() < target && attempts < 40 * target) {
    ++attempts;
    plan::QuerySpec query = generator.Next();
    auto plan = planner.Plan(query);
    if (!plan.ok()) continue;
    bool uses_secondary_index = false;
    plan->root->Visit([&](const plan::PhysicalNode& node) {
      if (node.type == plan::PhysicalOpType::kIndexScan) {
        uses_secondary_index = true;
      }
      if (node.type == plan::PhysicalOpType::kIndexNLJoin) {
        const storage::Table* inner = imdb.db->FindTable(node.table_name);
        if (inner != nullptr &&
            inner->schema().column(node.index_column).name != "id") {
          uses_secondary_index = true;
        }
      }
    });
    if (uses_secondary_index) queries.push_back(std::move(query));
  }
  return train::CollectRecords(imdb, queries, train::CollectOptions());
}

int Run(const BenchOptions& options) {
  ExperimentContext context =
      BuildContext(/*need_exact_model=*/true, /*need_baseline_pool=*/false);

  std::vector<Row> rows;
  std::fprintf(stderr, "[eval] scale workload...\n");
  rows.push_back(EvalRow(&context, "Scale",
                         CollectEvalWorkload(context,
                                             workload::BenchmarkWorkload::kScale)));
  std::fprintf(stderr, "[eval] synthetic workload...\n");
  rows.push_back(EvalRow(
      &context, "Synthetic",
      CollectEvalWorkload(context, workload::BenchmarkWorkload::kSynthetic)));
  std::fprintf(stderr, "[eval] job-light workload...\n");
  rows.push_back(EvalRow(
      &context, "JOB-light",
      CollectEvalWorkload(context, workload::BenchmarkWorkload::kJobLight)));
  std::fprintf(stderr, "[eval] index (what-if) workload...\n");
  rows.push_back(EvalRow(&context, "Index", CollectIndexWorkload(&context)));

  std::printf("Table 1: estimation errors (Q-errors) of zero-shot models for "
              "index tuning (last line)\n");
  std::printf("compared to zero-shot cost models without What-If support "
              "(upper lines). Unseen IMDB, scale=%s.\n\n",
              context.scale.name);
  std::printf("%-10s | %28s | %28s | %5s\n", "Workload",
              "Zero-Shot (Exact Card.)", "Zero-Shot (Estimated Card.)", "n");
  std::printf("%-10s | %8s %8s %8s  | %8s %8s %8s  |\n", "", "median", "95th",
              "max", "median", "95th", "max");
  PrintRule(92);
  for (const Row& row : rows) {
    std::printf("%-10s | %8.2f %8.2f %8.2f  | %8.2f %8.2f %8.2f  | %5zu\n",
                row.name.c_str(), row.exact.median, row.exact.p95,
                row.exact.max, row.estimated.median, row.estimated.p95,
                row.estimated.max, row.exact.count);
  }
  PrintRule(92);

  return MaybeWriteBenchMetrics(
      options, "bench_table1_whatif", context.scale.name,
      {{"zero_shot_estimated", &context.zero_shot_estimated->train_result()},
       {"zero_shot_exact", &context.zero_shot_exact->train_result()}},
      context.zero_shot_estimated.get());
}

}  // namespace
}  // namespace zerodb::bench

int main(int argc, char** argv) {
  return zerodb::bench::Run(zerodb::bench::ParseBenchArgs(argc, argv));
}
