// An interactive SQL shell over the IMDB-like database with a zero-shot
// cost model in the loop: every query is parsed, planned, gets a runtime
// prediction from a model that never saw this database, and is then
// executed so you can compare prediction against measurement.
//
//   $ ./sql_shell                       # interactive
//   $ echo "SELECT COUNT(*) FROM title;" | ./sql_shell
//
// Commands: \d (schema), \metrics (registry JSON), \trace <path> (write
// the last query's operator timeline), \help, \q (quit). Anything else is
// parsed as SQL.

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/math_util.h"
#include "datagen/corpus.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/trace_event.h"
#include "optimizer/optimizer.h"
#include "runtime/simulator.h"
#include "sql/parser.h"
#include "workload/generator.h"
#include "zeroshot/estimator.h"

using namespace zerodb;

namespace {

void PrintSchema(const storage::Database& db) {
  for (const storage::Table& table : db.tables()) {
    std::printf("  %s (%zu rows, %lld pages)\n", table.name().c_str(),
                table.num_rows(),
                static_cast<long long>(table.NumPages()));
    for (const auto& column : table.schema().columns()) {
      std::printf("    %-18s %s\n", column.name.c_str(),
                  catalog::DataTypeName(column.type));
    }
  }
}

void PrintBatch(const exec::RowBatch& batch, size_t limit = 10) {
  const size_t rows = std::min(batch.num_rows(), limit);
  for (size_t r = 0; r < rows; ++r) {
    std::printf("  ");
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      std::printf("%12.4g", batch.columns[c][r]);
    }
    std::printf("\n");
  }
  if (batch.num_rows() > limit) {
    std::printf("  ... (%zu rows total)\n", batch.num_rows());
  }
}

void PrintHelp() {
  std::printf(
      "  \\d              show the schema of the connected database\n"
      "  \\metrics        dump the live metrics registry as JSON (executor,\n"
      "                  planner, zero-shot and quality.* prediction-quality\n"
      "                  series; the --metrics_out \"metrics\" layout)\n"
      "  \\trace <path>   write the last query's operator timeline (one event\n"
      "                  per operator, work counters as args) as Chrome\n"
      "                  trace-event JSON (open in chrome://tracing or\n"
      "                  ui.perfetto.dev)\n"
      "  \\help           this help\n"
      "  \\q              quit\n"
      "  anything else is parsed as SQL and executed\n");
}

/// Writes the last query's timeline as a standalone Chrome trace-event file.
void WriteQueryTrace(const obs::TraceEventRecorder& recorder,
                     const std::string& path) {
  Status status = recorder.WriteTo(path);
  if (status.ok()) {
    std::printf("wrote %s — open in chrome://tracing or ui.perfetto.dev\n",
                path.c_str());
  } else {
    std::printf("trace write failed: %s\n", status.ToString().c_str());
  }
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  // Live metrics for \metrics: executor/planner/zero-shot instrumentation
  // plus the estimator's quality.* prediction-quality series.
  obs::MetricsRegistry::Global().set_enabled(true);

  std::printf("zerodb shell — training zero-shot cost model "
              "(on 6 other databases)...\n");
  auto corpus = datagen::MakeTrainingCorpus(42, 6, 0.1);
  zeroshot::ZeroShotConfig config;
  config.queries_per_database = 150;
  config.trainer.max_epochs = 20;
  auto estimator = zeroshot::ZeroShotEstimator::Train(corpus, config);

  auto imdb = datagen::MakeImdbEnv(7, 0.1);
  optimizer::Planner planner(imdb.db.get(), &imdb.stats);
  runtime::RuntimeSimulator simulator;
  // Each query records into its own recorder; \trace writes the last one.
  std::unique_ptr<obs::TraceEventRecorder> last_trace;

  std::printf("Connected to database 'imdb' (never seen in training).\n");
  std::printf("Type SQL, \\d for schema, \\help for commands, \\q to quit.\n\n");

  std::string line;
  while (std::printf("zerodb> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "\\q") break;
    if (line == "\\d") {
      PrintSchema(*imdb.db);
      continue;
    }
    if (line == "\\help" || line == "\\h") {
      PrintHelp();
      continue;
    }
    if (line == "\\metrics") {
      std::printf("%s\n",
                  obs::MetricsRegistry::Global().ToJson().Dump(2).c_str());
      continue;
    }
    if (line.rfind("\\trace", 0) == 0) {
      std::string path = line.size() > 7 ? line.substr(7) : "";
      while (!path.empty() && path.front() == ' ') path.erase(path.begin());
      if (path.empty()) {
        std::printf("usage: \\trace <path>\n");
      } else if (last_trace == nullptr) {
        std::printf("no query executed yet — run one first\n");
      } else {
        WriteQueryTrace(*last_trace, path);
      }
      continue;
    }
    auto query = sql::ParseQuery(line, *imdb.db);
    if (!query.ok()) {
      std::printf("parse error: %s\n", query.status().ToString().c_str());
      continue;
    }
    auto plan = planner.Plan(*query);
    if (!plan.ok()) {
      std::printf("plan error: %s\n", plan.status().ToString().c_str());
      continue;
    }
    auto predicted = estimator.EstimateQueryMs(imdb, *query);
    auto trace = std::make_unique<obs::TraceEventRecorder>();
    exec::ExecutorOptions exec_options;
    exec_options.recorder = trace.get();
    auto result = exec::Executor(imdb.db.get(), exec_options).Execute(&*plan);
    if (!result.ok()) {
      std::printf("execution error: %s\n",
                  result.status().ToString().c_str());
      continue;
    }
    last_trace = std::move(trace);
    double measured = simulator.PlanMs(*plan, *result);

    std::printf("\n%s\n\n", plan->root->ToString(*imdb.db).c_str());
    PrintBatch(result->output);
    if (predicted.ok()) {
      // Every (prediction, measurement) pair feeds the online quality
      // monitor — drift shows up under quality.* in \metrics.
      estimator.RecordFeedback(*predicted, Millis(measured));
      std::printf("\n  zero-shot prediction: %8.2f ms   measured: %8.2f ms "
                  "  (q-error %.2f)%s\n\n",
                  predicted->value(), measured, QError(predicted->value(), measured),
                  estimator.quality_monitor() != nullptr &&
                          estimator.quality_monitor()->drifting()
                      ? "   [quality drift detected]"
                      : "");
    }
  }
  std::printf("\nbye\n");
  return 0;
}
