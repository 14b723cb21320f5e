#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/corpus.h"
#include "exec/executor.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/telemetry.h"
#include "obs/trace_event.h"
#include "optimizer/optimizer.h"
#include "plan/physical.h"
#include "storage/database.h"
#include "workload/benchmarks.h"

namespace zerodb::obs {
namespace {

using catalog::ColumnSchema;
using catalog::DataType;
using catalog::TableSchema;

// ---------------------------------------------------------------------------
// JSON

TEST(JsonTest, DumpPrimitives) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(int64_t{42}).Dump(), "42");
  EXPECT_EQ(JsonValue(-7).Dump(), "-7");
  EXPECT_EQ(JsonValue(1.5).Dump(), "1.5");
  EXPECT_EQ(JsonValue("hi \"there\"\n").Dump(), "\"hi \\\"there\\\"\\n\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndSetOverwrites) {
  JsonValue object = JsonValue::Object();
  object.Set("zebra", 1);
  object.Set("apple", 2);
  object.Set("zebra", 3);
  EXPECT_EQ(object.Dump(), "{\"zebra\":3,\"apple\":2}");
  ASSERT_NE(object.Find("apple"), nullptr);
  EXPECT_EQ(object.Find("apple")->AsInt(), 2);
  EXPECT_EQ(object.Find("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry;  // disabled by default
  Counter* counter = registry.GetCounter("c");
  Histogram* histogram = registry.GetHistogram("h");
  Gauge* gauge = registry.GetGauge("g");
  counter->Add(5);
  histogram->Observe(1.0);
  gauge->Set(9.0);
  EXPECT_EQ(counter->value(), 0);
  EXPECT_EQ(histogram->count(), 0);
  EXPECT_EQ(gauge->value(), 0.0);

  registry.set_enabled(true);
  counter->Add(5);
  histogram->Observe(1.0);
  gauge->Set(9.0);
  EXPECT_EQ(counter->value(), 5);
  EXPECT_EQ(histogram->count(), 1);
  EXPECT_EQ(gauge->value(), 9.0);
}

TEST(MetricsTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry(/*enabled=*/true);
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_NE(registry.GetCounter("x"), registry.GetCounter("y"));
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
}

TEST(MetricsTest, ConcurrentWriters) {
  MetricsRegistry registry(/*enabled=*/true);
  constexpr int kThreads = 8;
  constexpr int kIterations = 10000;
  // zerodb-lint: allow(raw-thread): raw threads race the registry directly
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Metric lookup races with other threads' lookups and writes.
      Counter* counter = registry.GetCounter("shared.counter");
      Counter* own = registry.GetCounter("own." + std::to_string(t));
      Histogram* histogram = registry.GetHistogram("shared.histogram");
      for (int i = 0; i < kIterations; ++i) {
        counter->Add(1);
        own->Add(1);
        histogram->Observe(static_cast<double>(i % 100));
      }
    });
  }
  // zerodb-lint: allow(raw-thread): raw threads race the registry directly
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(registry.GetCounter("shared.counter")->value(),
            kThreads * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.GetCounter("own." + std::to_string(t))->value(),
              kIterations);
  }
  Histogram* histogram = registry.GetHistogram("shared.histogram");
  EXPECT_EQ(histogram->count(), kThreads * kIterations);
  EXPECT_EQ(histogram->min(), 0.0);
  EXPECT_EQ(histogram->max(), 99.0);
}

TEST(MetricsTest, HistogramQuantiles) {
  MetricsRegistry registry(/*enabled=*/true);
  Histogram* histogram =
      registry.GetHistogram("h", {10.0, 20.0, 30.0, 40.0, 50.0});
  for (int i = 1; i <= 100; ++i) histogram->Observe(static_cast<double>(i) / 2);
  EXPECT_EQ(histogram->count(), 100);
  EXPECT_DOUBLE_EQ(histogram->min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram->max(), 50.0);
  // Values are uniform on (0, 50]; interpolated quantiles should be close.
  EXPECT_NEAR(histogram->Quantile(0.5), 25.0, 5.0);
  EXPECT_NEAR(histogram->Quantile(0.95), 47.5, 5.0);
  EXPECT_LE(histogram->Quantile(1.0), histogram->max());
  EXPECT_GE(histogram->Quantile(0.0), histogram->min() - 1e-9);
}

TEST(MetricsTest, HistogramQuantileEdgeCases) {
  MetricsRegistry registry(/*enabled=*/true);

  // Empty histogram: every quantile is 0.
  Histogram* empty = registry.GetHistogram("empty", {1.0, 2.0});
  EXPECT_EQ(empty->Quantile(0.0), 0.0);
  EXPECT_EQ(empty->Quantile(0.5), 0.0);
  EXPECT_EQ(empty->Quantile(1.0), 0.0);

  // q = 0 / q = 1 clamp to the observed extremes, and out-of-range q is
  // clamped into [0, 1] rather than extrapolated.
  Histogram* small = registry.GetHistogram("small", {10.0, 20.0});
  small->Observe(4.0);
  small->Observe(15.0);
  EXPECT_DOUBLE_EQ(small->Quantile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(small->Quantile(1.0), 15.0);
  EXPECT_DOUBLE_EQ(small->Quantile(-3.0), small->Quantile(0.0));
  EXPECT_DOUBLE_EQ(small->Quantile(7.0), small->Quantile(1.0));

  // All mass in the +inf overflow bucket: quantiles must come back as the
  // observed max, never as infinity or a bound nothing reached.
  Histogram* overflow = registry.GetHistogram("overflow", {1.0, 2.0});
  overflow->Observe(100.0);
  overflow->Observe(200.0);
  EXPECT_GE(overflow->Quantile(0.5), 100.0);
  EXPECT_LE(overflow->Quantile(0.5), 200.0);
  EXPECT_DOUBLE_EQ(overflow->Quantile(1.0), 200.0);
  EXPECT_GE(overflow->Quantile(0.01), 100.0);
}

TEST(MetricsTest, RegistryToJson) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.GetCounter("b.counter")->Add(3);
  registry.GetCounter("a.counter")->Add(1);
  registry.GetGauge("gauge")->Set(2.5);
  registry.GetHistogram("hist")->Observe(7.0);
  Histogram* bounded = registry.GetHistogram("bounded", {10.0, 20.0});
  bounded->Observe(5.0);
  bounded->Observe(25.0);
  JsonValue json = registry.ToJson();
  // Names are sorted for stable artifacts.
  const JsonValue* counters = json.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members().size(), 2u);
  EXPECT_EQ(counters->members()[0].first, "a.counter");
  EXPECT_EQ(counters->members()[1].first, "b.counter");
  EXPECT_EQ(counters->Find("b.counter")->AsInt(), 3);
  EXPECT_DOUBLE_EQ(json.Find("gauges")->Find("gauge")->AsDouble(), 2.5);
  const JsonValue* histograms = json.Find("histograms");
  ASSERT_EQ(histograms->members().size(), 2u);
  EXPECT_EQ(histograms->members()[0].first, "bounded");
  const JsonValue* hist = histograms->Find("hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->AsInt(), 1);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->AsDouble(), 7.0);

  // Per-bucket counts; empty buckets are omitted and the overflow bucket
  // is labelled "inf".
  const JsonValue* h = histograms->Find("bounded");
  EXPECT_EQ(h->Find("count")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(h->Find("sum")->AsDouble(), 30.0);
  const JsonValue* buckets = h->Find("buckets");
  ASSERT_EQ(buckets->size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->at(0).Find("le")->AsDouble(), 10.0);  // 5 <= 10
  EXPECT_EQ(buckets->at(0).Find("count")->AsInt(), 1);
  EXPECT_EQ(buckets->at(1).Find("le")->AsString(), "inf");  // 25 > 20
  EXPECT_EQ(buckets->at(1).Find("count")->AsInt(), 1);
  // The dump is a copy: later writes do not retroactively change it.
  bounded->Observe(1.0);
  EXPECT_EQ(h->Find("count")->AsInt(), 2);
}

TEST(MetricsTest, ScopedTimerRecords) {
  MetricsRegistry registry(/*enabled=*/true);
  Histogram* histogram = registry.GetHistogram("timer_us");
  Counter* total = registry.GetCounter("timer_total_us");
  { ScopedTimer timer(histogram, total); }
  EXPECT_EQ(histogram->count(), 1);
  EXPECT_GE(histogram->sum(), 0.0);
  { ScopedTimer noop(nullptr, nullptr); }
  EXPECT_EQ(histogram->count(), 1);
}

// ---------------------------------------------------------------------------
// Tracing

// users(id, age) x orders(id, user_id, amt) — small, deterministic.
storage::Database MakeDb() {
  storage::Database db("obs_test");
  storage::Table users(
      TableSchema("users", {ColumnSchema{"id", DataType::kInt64, 8},
                            ColumnSchema{"age", DataType::kInt64, 8}}));
  for (int i = 0; i < 5; ++i) {
    users.column(0).AppendInt64(i);
    users.column(1).AppendInt64(20 + i);
  }
  storage::Table orders(
      TableSchema("orders", {ColumnSchema{"id", DataType::kInt64, 8},
                             ColumnSchema{"user_id", DataType::kInt64, 8},
                             ColumnSchema{"amt", DataType::kDouble, 8}}));
  for (int i = 0; i < 8; ++i) {
    orders.column(0).AppendInt64(i);
    orders.column(1).AppendInt64(i % 5);
    orders.column(2).AppendDouble(10.0 * i);
  }
  EXPECT_TRUE(db.AddTable(std::move(users)).ok());
  EXPECT_TRUE(db.AddTable(std::move(orders)).ok());
  return db;
}

/// One executor operator event pulled out of a recorder's trace JSON.
struct OperatorEvent {
  std::string name;
  double tid = 0.0;
  double ts = 0.0;
  double end = 0.0;
  const JsonValue* args = nullptr;
};

/// The "exec" complete events of `trace`, in recording order.
std::vector<OperatorEvent> OperatorEventsOf(const JsonValue& trace) {
  std::vector<OperatorEvent> out;
  const JsonValue* events = trace.Find("traceEvents");
  if (events == nullptr) return out;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    if (event.Find("ph")->AsString() != "X" ||
        event.Find("cat")->AsString() != "exec") {
      continue;
    }
    const double ts = event.Find("ts")->AsDouble();
    out.push_back({event.Find("name")->AsString(),
                   event.Find("tid")->AsDouble(), ts,
                   ts + event.Find("dur")->AsDouble(), event.Find("args")});
  }
  return out;
}

/// Appends `node`'s subtree in execution-completion (post-) order, each
/// entry with its parent's index (-1 for the root); returns `node`'s index.
size_t PostOrder(const plan::PhysicalNode& node,
                 std::vector<std::pair<const plan::PhysicalNode*, int>>* out) {
  std::vector<size_t> children;
  for (const auto& child : node.children) {
    children.push_back(PostOrder(*child, out));
  }
  const size_t self = out->size();
  out->emplace_back(&node, -1);
  for (size_t child : children) (*out)[child].second = static_cast<int>(self);
  return self;
}

/// The differential check behind the executor's one tracing model: the
/// recorder holds exactly one "exec" event per plan node (matched in
/// completion order), named "<op>[ <table>]", nested inside its parent's
/// interval on one track, with args equal to est_cardinality plus the
/// node's OperatorStats from the ExecutionResult.
void ExpectEventsMirrorPlan(const plan::PhysicalPlan& plan,
                            const exec::ExecutionResult& result,
                            const JsonValue& trace) {
  static const std::pair<const char*, int64_t exec::OperatorStats::*>
      kCounters[] = {
          {"input_rows_left", &exec::OperatorStats::input_rows_left},
          {"input_rows_right", &exec::OperatorStats::input_rows_right},
          {"output_rows", &exec::OperatorStats::output_rows},
          {"rows_scanned", &exec::OperatorStats::rows_scanned},
          {"pages_read", &exec::OperatorStats::pages_read},
          {"index_probes", &exec::OperatorStats::index_probes},
          {"index_entries", &exec::OperatorStats::index_entries},
          {"predicate_evals", &exec::OperatorStats::predicate_evals},
          {"hash_build_rows", &exec::OperatorStats::hash_build_rows},
          {"hash_probe_rows", &exec::OperatorStats::hash_probe_rows},
          {"sort_rows", &exec::OperatorStats::sort_rows},
          {"group_count", &exec::OperatorStats::group_count},
          {"output_bytes", &exec::OperatorStats::output_bytes},
      };
  // Interval ends are recomputed as ts + dur in floating point; allow well
  // under the clock's nanosecond resolution for that rounding.
  constexpr double kSlackUs = 1e-6;

  std::vector<std::pair<const plan::PhysicalNode*, int>> nodes;
  PostOrder(*plan.root, &nodes);
  const std::vector<OperatorEvent> events = OperatorEventsOf(trace);
  ASSERT_EQ(events.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const auto& [node, parent] = nodes[i];
    const OperatorEvent& event = events[i];
    std::string name = plan::PhysicalOpName(node->type);
    if (!node->table_name.empty()) name += " " + node->table_name;
    EXPECT_EQ(event.name, name);
    EXPECT_EQ(event.tid, events.back().tid);
    if (parent >= 0) {
      const OperatorEvent& outer = events[static_cast<size_t>(parent)];
      EXPECT_GE(event.ts, outer.ts - kSlackUs) << event.name;
      EXPECT_LE(event.end, outer.end + kSlackUs) << event.name;
    }
    ASSERT_NE(event.args, nullptr) << event.name;
    EXPECT_EQ(event.args->members().size(), 1 + std::size(kCounters));
    ASSERT_NE(event.args->Find("est_cardinality"), nullptr) << event.name;
    EXPECT_EQ(event.args->Find("est_cardinality")->AsDouble(),
              node->est_cardinality);
    const exec::OperatorStats& stats = result.StatsFor(*node);
    for (const auto& [key, counter] : kCounters) {
      ASSERT_NE(event.args->Find(key), nullptr) << key;
      EXPECT_EQ(event.args->Find(key)->AsDouble(),
                static_cast<double>(stats.*counter))
          << event.name << " " << key;
    }
  }
}

// SimpleAggregate -> HashJoin -> {SeqScan(users), SeqScan(orders)}: the
// events carry the operator (and table) names and the work counters, and
// the registry counts the same execution.
TEST(ExecutorTraceTest, OperatorEventsMirrorPlan) {
  storage::Database db = MakeDb();
  MetricsRegistry registry(/*enabled=*/true);
  TraceEventRecorder recorder;
  exec::ExecutorOptions options;
  options.recorder = &recorder;
  options.metrics = &registry;
  exec::Executor executor(&db, options);

  plan::PhysicalPlan plan(plan::MakeSimpleAggregate(
      plan::MakeHashJoin(plan::MakeSeqScan("users", std::nullopt),
                         plan::MakeSeqScan("orders", std::nullopt),
                         /*left_key_slot=*/0, /*right_key_slot=*/1),
      {plan::AggregateExpr{plan::AggFunc::kCount, std::nullopt}}));
  auto result = executor.Execute(&plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(registry.GetCounter("exec.queries")->value(), 1);
  EXPECT_EQ(registry.GetCounter("exec.operators")->value(), 4);
  // 5 + 8 + 8 + 1 output rows over the four operators.
  EXPECT_EQ(registry.GetCounter("exec.rows_produced")->value(), 22);

  const JsonValue trace = recorder.ToJson();
  ASSERT_NO_FATAL_FAILURE(ExpectEventsMirrorPlan(plan, *result, trace));
  const std::vector<OperatorEvent> events = OperatorEventsOf(trace);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "SeqScan users");
  EXPECT_EQ(events[1].name, "SeqScan orders");
  EXPECT_EQ(events[2].name, "HashJoin");
  EXPECT_EQ(events[3].name, "SimpleAggregate");
  EXPECT_EQ(events[0].args->Find("output_rows")->AsDouble(), 5.0);
  EXPECT_EQ(events[1].args->Find("output_rows")->AsDouble(), 8.0);
  EXPECT_EQ(events[2].args->Find("output_rows")->AsDouble(), 8.0);
  EXPECT_EQ(events[2].args->Find("hash_build_rows")->AsDouble(), 5.0);
  EXPECT_EQ(events[3].args->Find("output_rows")->AsDouble(), 1.0);
}

// The same check over the 60 seed-workload plans (the inputs of
// PlanValidatorPassThroughTest.SeedWorkloadPlansValidate): every operator
// of every executed plan reaches the timeline exactly once, nested and
// carrying its recorded stats.
TEST(ExecutorTraceTest, SeedWorkloadEventsMatchStats) {
  datagen::DatabaseEnv env = datagen::MakeImdbEnv(17, 0.05);
  optimizer::Planner planner(env.db.get(), &env.stats);
  size_t executed = 0;
  for (workload::BenchmarkWorkload benchmark :
       {workload::BenchmarkWorkload::kScale,
        workload::BenchmarkWorkload::kSynthetic,
        workload::BenchmarkWorkload::kJobLight}) {
    for (const plan::QuerySpec& query :
         workload::MakeBenchmark(benchmark, env, /*count=*/20, /*seed=*/23)) {
      auto plan = planner.Plan(query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      TraceEventRecorder recorder;
      exec::ExecutorOptions options;
      options.recorder = &recorder;
      auto result = exec::Executor(env.db.get(), options).Execute(&*plan);
      if (!result.ok()) continue;
      SCOPED_TRACE(plan->root->ToString(*env.db));
      ASSERT_NO_FATAL_FAILURE(
          ExpectEventsMirrorPlan(*plan, *result, recorder.ToJson()));
      ++executed;
    }
  }
  EXPECT_EQ(executed, 60u);
}

// ---------------------------------------------------------------------------
// Training telemetry + artifact

// Reads a whole file written by a WriteTo, then deletes it.
std::string ReadFileAndRemove(const std::string& path) {
  std::string text;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  return text;
}

TEST(TelemetryTest, HistorySerializesEveryEpoch) {
  std::vector<EpochStat> history = {{1, 2.0, 2.5, 1e-3, 0.7},
                                    {2, 1.5, 2.0, 1e-3, 0.6}};
  JsonValue epochs = HistoryToJson(history);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs.at(1).Find("epoch")->AsInt(), 2);
  EXPECT_DOUBLE_EQ(epochs.at(0).Find("train_loss")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(epochs.at(1).Find("val_loss")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(epochs.at(0).Find("learning_rate")->AsDouble(), 1e-3);
  EXPECT_DOUBLE_EQ(epochs.at(0).Find("grad_norm")->AsDouble(), 0.7);
}

TEST(ArtifactTest, WriteToProducesParseableJson) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.GetCounter("events")->Add(4);

  MetricsArtifact artifact("unit_test");
  artifact.AddLabel("scale", "tiny");
  artifact.SetRegistry(&registry);
  artifact.AddTrainingRun("model", {{1, 2.0, 2.5, 1e-3, 0.7}});

  std::string path = ::testing::TempDir() + "/obs_artifact.json";
  ASSERT_TRUE(artifact.WriteTo(path).ok());
  const JsonValue json = artifact.ToJson();
  EXPECT_EQ(ReadFileAndRemove(path), json.Dump(/*indent=*/2) + "\n");

  EXPECT_EQ(json.Find("name")->AsString(), "unit_test");
  EXPECT_EQ(json.Find("labels")->Find("scale")->AsString(), "tiny");
  EXPECT_EQ(json.Find("metrics")->Find("counters")->Find("events")->AsInt(), 4);
  EXPECT_EQ(json.Find("traces"), nullptr);  // timelines go to --trace_out
  const JsonValue* run = json.Find("training")->Find("model");
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(run->size(), 1u);
  EXPECT_EQ(run->at(0).Find("epoch")->AsInt(), 1);
}

// ---------------------------------------------------------------------------
// Cross-thread timeline recorder

/// Pulls the traceEvents array out of a recorder's JSON.
const JsonValue* EventsOf(const JsonValue& trace) {
  const JsonValue* events = trace.Find("traceEvents");
  EXPECT_NE(events, nullptr);
  return events;
}

TEST(TraceEventTest, RecordsCompleteAndCounterEvents) {
  TraceEventRecorder recorder;
  {
    TimelineScope scope("work", "test", &recorder);
    scope.AddArg("items", 3.0);
  }
  recorder.AddCounter("queue_depth", 7.0);

  JsonValue trace = recorder.ToJson();
  EXPECT_EQ(trace.Find("displayTimeUnit")->AsString(), "ms");
  const JsonValue* events = EventsOf(trace);
  ASSERT_NE(events, nullptr);

  bool saw_process_name = false, saw_thread_name = false;
  bool saw_work = false, saw_counter = false;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    const std::string ph = event.Find("ph")->AsString();
    const std::string name = event.Find("name")->AsString();
    if (ph == "M" && name == "process_name") saw_process_name = true;
    if (ph == "M" && name == "thread_name") saw_thread_name = true;
    if (ph == "X" && name == "work") {
      saw_work = true;
      EXPECT_GE(event.Find("dur")->AsDouble(), 0.0);
      EXPECT_GE(event.Find("ts")->AsDouble(), 0.0);
      ASSERT_NE(event.Find("args"), nullptr);
      EXPECT_DOUBLE_EQ(event.Find("args")->Find("items")->AsDouble(), 3.0);
    }
    if (ph == "C" && name == "queue_depth") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(event.Find("args")->Find("value")->AsDouble(), 7.0);
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_work);
  EXPECT_TRUE(saw_counter);
}

TEST(TraceEventTest, DisabledOrNullRecorderIsFreeAndSafe) {
  {
    TimelineScope scope("noop", "test", nullptr);
    EXPECT_FALSE(scope.active());
    scope.AddArg("ignored", 1.0);
    scope.SetDetail("ignored");
  }
  TraceEventRecorder recorder;
  recorder.set_enabled(false);
  {
    TimelineScope scope("noop", "test", &recorder);
    EXPECT_FALSE(scope.active());
  }
  recorder.AddCompleteEvent("direct", "test", 0.0, 1.0);
  recorder.AddCounter("direct", 1.0);
  // Only metadata (process name) in the output — no tracks were opened.
  JsonValue trace = recorder.ToJson();
  EXPECT_EQ(EventsOf(trace)->size(), 1u);
}

TEST(TraceEventTest, EightThreadsRecordConcurrentlyWithNamedTracks) {
  TraceEventRecorder recorder;
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 200;
  // zerodb-lint: allow(raw-thread): racing the recorder is the test
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      SetCurrentThreadTraceName("stress-" + std::to_string(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        TimelineScope scope("tick", "stress", &recorder);
        scope.AddArg("i", static_cast<double>(i));
      }
    });
  }
  // Exports race the writers: ToJson must see consistent (never torn) state.
  for (int i = 0; i < 4; ++i) recorder.ToJson();
  // zerodb-lint: allow(raw-thread): racing the recorder is the test
  for (std::thread& thread : threads) thread.join();

  JsonValue trace = recorder.ToJson();
  const JsonValue* events = EventsOf(trace);
  int ticks = 0;
  std::vector<std::string> track_names;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    if (event.Find("ph")->AsString() == "X") ++ticks;
    if (event.Find("ph")->AsString() == "M" &&
        event.Find("name")->AsString() == "thread_name") {
      track_names.push_back(event.Find("args")->Find("name")->AsString());
    }
  }
  EXPECT_EQ(ticks, kThreads * kEventsPerThread);
  EXPECT_EQ(recorder.dropped_events(), 0);
  // Every stress thread got its own named track.
  int stress_tracks = 0;
  for (const std::string& name : track_names) {
    if (name.rfind("stress-", 0) == 0) ++stress_tracks;
  }
  EXPECT_EQ(stress_tracks, kThreads);
}

TEST(TraceEventTest, BoundedBuffersCountDroppedEvents) {
  TraceEventRecorder::Options options;
  options.max_events_per_thread = 4;
  TraceEventRecorder recorder(options);
  for (int i = 0; i < 10; ++i) {
    recorder.AddCompleteEvent("e", "test", static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(recorder.dropped_events(), 6);
  JsonValue trace = recorder.ToJson();
  const JsonValue* events = EventsOf(trace);
  bool saw_dropped_counter = false;
  int complete = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    if (event.Find("ph")->AsString() == "X") ++complete;
    if (event.Find("name")->AsString() == "zerodb_dropped_events") {
      saw_dropped_counter = true;
      EXPECT_EQ(event.Find("args")->Find("value")->AsInt(), 6);
    }
  }
  EXPECT_EQ(complete, 4);
  EXPECT_TRUE(saw_dropped_counter);
}

TEST(TraceEventTest, WriteToProducesLoadableJsonAndNoTempFile) {
  TraceEventRecorder recorder;
  { TimelineScope scope("work", "test", &recorder); }
  std::string path = ::testing::TempDir() + "/trace_event_test.json";
  ASSERT_TRUE(recorder.WriteTo(path).ok());

  // The crash-safe write must not leave its temp file behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  const JsonValue json = recorder.ToJson();
  EXPECT_EQ(ReadFileAndRemove(path), json.Dump(/*indent=*/1) + "\n");
  EXPECT_NE(json.Find("traceEvents"), nullptr);
}

// ---------------------------------------------------------------------------
// Prediction-quality monitor

PredictionQualityMonitor::Options QualityOptions(MetricsRegistry* registry,
                                                 const char* prefix) {
  PredictionQualityMonitor::Options options;
  options.registry = registry;
  options.metric_prefix = prefix;
  options.min_samples = 16;
  options.warn_every = 1 << 20;  // keep test logs quiet
  return options;
}

TEST(QualityTest, HealthyStreamNeverDrifts) {
  MetricsRegistry registry(/*enabled=*/true);
  PredictionQualityMonitor monitor(QualityOptions(&registry, "q1"));
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    double actual = rng.UniformDouble(1.0, 100.0);
    double predicted = actual * rng.UniformDouble(0.8, 1.25);
    monitor.Record(predicted, actual);
    EXPECT_FALSE(monitor.drifting()) << "at sample " << i;
  }
  EXPECT_EQ(monitor.samples(), 500);
  EXPECT_EQ(monitor.drift_events(), 0);
  EXPECT_LT(monitor.EwmaQError(), 1.5);
  EXPECT_EQ(registry.GetGauge("q1.drift")->value(), 0.0);
  EXPECT_EQ(registry.GetCounter("q1.samples")->value(), 500);
}

TEST(QualityTest, DegradedStreamFiresDriftAndRecovers) {
  MetricsRegistry registry(/*enabled=*/true);
  PredictionQualityMonitor monitor(QualityOptions(&registry, "q2"));
  // Warm-up: accurate predictions freeze a reference q-error near 1.
  for (int i = 0; i < 100; ++i) {
    monitor.Record(10.0 * 1.1, 10.0);
  }
  ASSERT_FALSE(monitor.drifting());
  EXPECT_NEAR(monitor.ReferenceQError(), 1.1, 0.01);

  // Degradation: the model is suddenly 10x off; the EWMA crosses the 2x
  // threshold within a few dozen samples.
  int fired_at = -1;
  for (int i = 0; i < 200; ++i) {
    monitor.Record(100.0, 10.0);
    if (monitor.drifting()) {
      fired_at = i;
      break;
    }
  }
  ASSERT_GE(fired_at, 0) << "drift never fired on a 10x-degraded stream";
  EXPECT_EQ(monitor.drift_events(), 1);
  EXPECT_EQ(registry.GetGauge("q2.drift")->value(), 1.0);
  EXPECT_GT(monitor.EwmaQError(), 2.0);

  // Recovery: accurate predictions pull the EWMA back under the threshold.
  for (int i = 0; i < 500 && monitor.drifting(); ++i) {
    monitor.Record(10.0, 10.0);
  }
  EXPECT_FALSE(monitor.drifting());
  EXPECT_EQ(monitor.drift_events(), 1);  // events count transitions only
  EXPECT_EQ(registry.GetGauge("q2.drift")->value(), 0.0);
}

TEST(QualityTest, IgnoresSamplesWithoutGroundTruth) {
  MetricsRegistry registry(/*enabled=*/true);
  PredictionQualityMonitor monitor(QualityOptions(&registry, "q3"));
  monitor.Record(5.0, 0.0);
  monitor.Record(5.0, -1.0);
  EXPECT_EQ(monitor.samples(), 0);
}

TEST(QualityTest, ToJsonAndArtifactQualitySection) {
  MetricsRegistry registry(/*enabled=*/true);
  PredictionQualityMonitor monitor(QualityOptions(&registry, "q4"));
  for (int i = 0; i < 64; ++i) monitor.Record(12.0, 10.0);

  JsonValue json = monitor.ToJson();
  EXPECT_EQ(json.Find("samples")->AsInt(), 64);
  EXPECT_NEAR(json.Find("qerror")->Find("max")->AsDouble(), 1.2, 1e-9);
  const JsonValue* drift = json.Find("drift");
  ASSERT_NE(drift, nullptr);
  EXPECT_FALSE(drift->Find("drifting")->AsBool());
  EXPECT_TRUE(drift->Find("armed")->AsBool());
  EXPECT_NEAR(drift->Find("reference_qerror")->AsDouble(), 1.2, 0.01);

  MetricsArtifact artifact("quality_unit_test");
  artifact.SetQualityMonitor(&monitor);
  JsonValue artifact_json = artifact.ToJson();
  ASSERT_NE(artifact_json.Find("quality"), nullptr);
  EXPECT_EQ(artifact_json.Find("quality")->Find("samples")->AsInt(), 64);
}

TEST(QualityTest, QuantilesComeFromHistogram) {
  MetricsRegistry registry(/*enabled=*/true);
  PredictionQualityMonitor monitor(QualityOptions(&registry, "q5"));
  for (int i = 0; i < 100; ++i) monitor.Record(20.0, 10.0);  // q-error 2
  EXPECT_NEAR(monitor.QErrorQuantile(0.5), 2.0, 0.5);
  EXPECT_EQ(registry.GetHistogram("q5.qerror")->count(), 100);
}

}  // namespace
}  // namespace zerodb::obs
