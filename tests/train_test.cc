#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "common/thread_pool.h"
#include "datagen/corpus.h"
#include "models/zeroshot_model.h"
#include "nn/ops.h"
#include "obs/json.h"
#include "obs/trace_event.h"
#include "train/dataset.h"
#include "train/metrics.h"
#include "train/trainer.h"
#include "workload/benchmarks.h"

namespace zerodb::train {
namespace {

class TrainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Size the global pool before its first use so every trainer test in
    // this binary exercises the parallel shard path even on 1-core hosts.
    ThreadPool::SetGlobalThreads(4);
    env_ = new datagen::DatabaseEnv(datagen::MakeImdbEnv(13, 0.03));
    records_ = new std::vector<QueryRecord>(CollectRandomWorkload(
        *env_, workload::TrainingWorkloadConfig(), 120, 5, CollectOptions()));
    ASSERT_GE(records_->size(), 100u);
  }
  static void TearDownTestSuite() {
    delete records_;
    delete env_;
  }
  static datagen::DatabaseEnv* env_;
  static std::vector<QueryRecord>* records_;
};

datagen::DatabaseEnv* TrainTest::env_ = nullptr;
std::vector<QueryRecord>* TrainTest::records_ = nullptr;

TEST_F(TrainTest, CollectRecordsAnnotatesEverything) {
  for (const QueryRecord& record : *records_) {
    EXPECT_EQ(record.db_name, "imdb");
    EXPECT_NE(record.env, nullptr);
    EXPECT_NE(record.plan.root, nullptr);
    EXPECT_GT(record.runtime_ms, 0.0);
    EXPECT_GT(record.opt_cost, 0.0);
    EXPECT_GE(record.plan.root->true_cardinality, 0.0);
  }
}

TEST_F(TrainTest, CollectSkipsUnplannableQueries) {
  // A disconnected query cannot be planned; collection drops it silently.
  plan::QuerySpec bad;
  bad.tables = {"title", "cast_info"};  // no join edge
  plan::QuerySpec good;
  good.tables = {"title"};
  good.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  auto records = CollectRecords(*env_, {bad, good, bad}, CollectOptions());
  EXPECT_EQ(records.size(), 1u);
}

TEST_F(TrainTest, NoiseSeedChangesRuntimes) {
  plan::QuerySpec query;
  query.tables = {"title"};
  query.aggregates = {plan::AggregateSpec{plan::AggFunc::kCount, "", ""}};
  CollectOptions a;
  a.noise_seed = 1;
  CollectOptions b;
  b.noise_seed = 2;
  auto record_a = CollectRecords(*env_, {query}, a);
  auto record_b = CollectRecords(*env_, {query}, b);
  ASSERT_EQ(record_a.size(), 1u);
  ASSERT_EQ(record_b.size(), 1u);
  EXPECT_NE(record_a[0].runtime_ms, record_b[0].runtime_ms);
  // But the same seed reproduces exactly.
  auto record_a2 = CollectRecords(*env_, {query}, a);
  EXPECT_DOUBLE_EQ(record_a[0].runtime_ms, record_a2[0].runtime_ms);
}

TEST_F(TrainTest, MakeViewPointsAtRecords) {
  auto view = MakeView(*records_);
  ASSERT_EQ(view.size(), records_->size());
  EXPECT_EQ(view[0], &(*records_)[0]);
}

models::ZeroShotCostModel MakeTinyModel(uint64_t seed = 1) {
  models::ZeroShotCostModel::Options options;
  options.hidden_dim = 16;
  options.init_seed = seed;
  return models::ZeroShotCostModel(options);
}

TEST_F(TrainTest, BatchLargerThanDataWorks) {
  auto model = MakeTinyModel(3);
  std::vector<const QueryRecord*> few;
  for (size_t i = 0; i < 10; ++i) few.push_back(&(*records_)[i]);
  TrainerOptions options;
  options.max_epochs = 3;
  options.batch_size = 64;  // larger than the dataset
  options.validation_fraction = 0.0;
  TrainResult result = TrainModel(&model, few, options);
  EXPECT_EQ(result.epochs_run, 3u);
}

TEST_F(TrainTest, ZeroValidationFractionUsesTrainLoss) {
  auto model = MakeTinyModel(4);
  std::vector<const QueryRecord*> few;
  for (size_t i = 0; i < 12; ++i) few.push_back(&(*records_)[i]);
  TrainerOptions options;
  options.max_epochs = 5;
  options.validation_fraction = 0.0;
  TrainResult result = TrainModel(&model, few, options);
  EXPECT_GT(result.best_validation_loss, 0.0);
}

TEST_F(TrainTest, TrainingImprovesOverInitialization) {
  auto model = MakeTinyModel(5);
  auto view = MakeView(*records_);
  // Initial loss (Prepare happens inside TrainModel; to get a baseline,
  // train for 0-epochs equivalent: 1 epoch vs 15 epochs).
  auto model_short = MakeTinyModel(5);
  TrainerOptions short_options;
  short_options.max_epochs = 1;
  TrainResult short_result = TrainModel(&model_short, view, short_options);
  TrainerOptions long_options;
  long_options.max_epochs = 20;
  TrainResult long_result = TrainModel(&model, view, long_options);
  EXPECT_LT(long_result.best_validation_loss,
            short_result.best_validation_loss);
}

TEST_F(TrainTest, DeterministicTrainingGivenSeeds) {
  auto model_a = MakeTinyModel(6);
  auto model_b = MakeTinyModel(6);
  auto view = MakeView(*records_);
  TrainerOptions options;
  options.max_epochs = 4;
  options.seed = 11;
  TrainResult result_a = TrainModel(&model_a, view, options);
  TrainResult result_b = TrainModel(&model_b, view, options);
  EXPECT_DOUBLE_EQ(result_a.final_train_loss, result_b.final_train_loss);
  std::vector<const QueryRecord*> probe = {&(*records_)[0]};
  EXPECT_DOUBLE_EQ(model_a.PredictMs(probe)[0].value(),
                   model_b.PredictMs(probe)[0].value());
}

// The tentpole determinism contract: minibatches split into fixed 8-record
// shards with a fixed-order reduction of partial gradients, so the loss
// history is exactly — not approximately — thread-count independent.
void ExpectSameHistory(const TrainResult& a, const TrainResult& b) {
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_EQ(a.history[e].train_loss, b.history[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(a.history[e].val_loss, b.history[e].val_loss) << "epoch " << e;
    EXPECT_EQ(a.history[e].grad_norm, b.history[e].grad_norm) << "epoch " << e;
  }
}

TEST_F(TrainTest, ThreadCountDoesNotChangeLossHistory) {
  auto model_serial = MakeTinyModel(6);
  auto model_parallel = MakeTinyModel(6);
  auto view = MakeView(*records_);
  TrainerOptions options;
  options.max_epochs = 4;
  options.seed = 11;
  options.num_threads = 1;
  TrainResult serial = TrainModel(&model_serial, view, options);
  options.num_threads = 4;
  TrainResult parallel = TrainModel(&model_parallel, view, options);
  ExpectSameHistory(serial, parallel);
  // The trained weights match too: identical predictions, bit for bit.
  std::vector<const QueryRecord*> probe = {&(*records_)[0], &(*records_)[7]};
  std::vector<Millis> p_serial = model_serial.PredictMs(probe);
  std::vector<Millis> p_parallel = model_parallel.PredictMs(probe);
  ASSERT_EQ(p_serial.size(), p_parallel.size());
  for (size_t i = 0; i < p_serial.size(); ++i) {
    EXPECT_EQ(p_serial[i].value(), p_parallel[i].value());
  }
}

TEST_F(TrainTest, ShardMappingDoesNotChangeLossHistory) {
  // Neither the static executor-to-shard mapping nor the state of the
  // models' scratch changes the arithmetic: every thread-count × scratch
  // combination produces the loss history of the serial cold run bit for
  // bit. batch_size 40 is 5 shards, so 2 and 3 executors split a batch
  // unevenly; 108 training records end each epoch on a partial batch (28
  // records, 4 shards). A warm model's scratch last held a pass over every
  // record, a larger and deeper batch than any shard.
  auto view = MakeView(*records_);
  for (size_t batch_size : {size_t(32), size_t(40)}) {
    TrainResult reference;
    bool have_reference = false;
    for (bool warm : {false, true}) {
      for (size_t threads : {size_t(1), size_t(2), size_t(3), size_t(4)}) {
        auto model = MakeTinyModel(6);
        if (warm) {
          model.Prepare(view);
          model.AccumulateGradients(view, 1.0f);
        }
        TrainerOptions options;
        options.max_epochs = 3;
        options.batch_size = batch_size;
        options.seed = 11;
        options.num_threads = threads;
        TrainResult result = TrainModel(&model, view, options);
        if (!have_reference) {
          reference = result;
          have_reference = true;
        } else {
          SCOPED_TRACE(testing::Message() << "batch " << batch_size
                                          << " warm " << warm << " threads "
                                          << threads);
          ExpectSameHistory(reference, result);
        }
      }
    }
  }
}

// Per-name counts of the complete events a recorder holds, plus each
// event's (tid, start, end) so nesting can be checked.
struct TraceSpan {
  double tid = 0.0;
  double begin = 0.0;
  double end = 0.0;
};
std::map<std::string, std::vector<TraceSpan>> SpansByName(
    const obs::TraceEventRecorder& recorder) {
  std::map<std::string, std::vector<TraceSpan>> spans;
  const obs::JsonValue trace = recorder.ToJson();
  const obs::JsonValue* events = trace.Find("traceEvents");
  for (size_t i = 0; events != nullptr && i < events->size(); ++i) {
    const obs::JsonValue& event = events->at(i);
    if (event.Find("ph")->AsString() != "X") continue;
    const double ts = event.Find("ts")->AsDouble();
    spans[event.Find("name")->AsString()].push_back(
        {event.Find("tid")->AsDouble(), ts,
         ts + event.Find("dur")->AsDouble()});
  }
  return spans;
}

// True when `child` lies inside one of `parents` on the same thread.
bool NestedIn(const TraceSpan& child, const std::vector<TraceSpan>& parents) {
  for (const TraceSpan& parent : parents) {
    if (parent.tid == child.tid && parent.begin <= child.begin &&
        child.end <= parent.end) {
      return true;
    }
  }
  return false;
}

TEST_F(TrainTest, TracedTrainingEmitsBatchTailEvents) {
  obs::TraceEventRecorder* recorder = obs::TraceEventRecorder::InstallGlobal();
  // The global recorder outlives the test; count only the events it adds.
  auto before = SpansByName(*recorder);
  auto model = MakeTinyModel(8);
  TrainerOptions options;
  options.max_epochs = 2;
  options.early_stop_patience = 100;
  options.num_threads = 4;
  recorder->set_enabled(true);
  TrainResult result = TrainModel(&model, MakeView(*records_), options);
  recorder->set_enabled(false);
  ASSERT_EQ(result.epochs_run, 2u);

  auto spans = SpansByName(*recorder);
  auto added = [&](const char* name) {
    return spans[name].size() - before[name].size();
  };
  const size_t batches = added("train.batch");
  ASSERT_GT(batches, 0u);
  ASSERT_EQ(added("train.epoch"), 2u);
  // One reduce and one step per batch, on the caller inside its batch; one
  // validation pass per epoch, inside the epoch.
  EXPECT_EQ(added("train.reduce"), batches);
  EXPECT_EQ(added("train.step"), batches);
  EXPECT_EQ(added("train.validate"), 2u);
  for (const char* name : {"train.reduce", "train.step"}) {
    for (const TraceSpan& span : spans[name]) {
      EXPECT_TRUE(NestedIn(span, spans["train.batch"])) << name;
    }
  }
  for (const TraceSpan& span : spans["train.validate"]) {
    EXPECT_TRUE(NestedIn(span, spans["train.epoch"]));
  }
}

#ifndef NDEBUG

// A one-weight model whose loss is finite but whose gradient is NaN on one
// record: relu(x * w) at x = -inf is 0, while dL/dw = x * relu'(x * w) =
// -inf * 0 = NaN. Only the shard holding that record produces a NaN partial.
class PoisonedGradientModel final : public models::NeuralCostModel {
 public:
  explicit PoisonedGradientModel(const QueryRecord* poisoned)
      : poisoned_(poisoned), weight_(nn::Tensor::Parameter(1, 1, {0.5f})) {}

  std::string Name() const override { return "poisoned-gradient"; }
  std::vector<Millis> PredictMs(
      const std::vector<const QueryRecord*>& records) override {
    return std::vector<Millis>(records.size(), Millis(1.0));
  }
  void Prepare(const std::vector<const QueryRecord*>&) override {}
  float LossOnBatch(const std::vector<const QueryRecord*>& batch) override {
    return Loss(batch).item();
  }
  float AccumulateGradients(const std::vector<const QueryRecord*>& batch,
                            float scale) override {
    return nn::BackwardScaled(Loss(batch), scale);
  }
  std::vector<nn::Tensor> Parameters() const override { return {weight_}; }
  std::unique_ptr<models::NeuralCostModel> CloneReplica() const override {
    return std::make_unique<PoisonedGradientModel>(poisoned_);
  }

 private:
  nn::Tensor Loss(const std::vector<const QueryRecord*>& batch) {
    std::vector<float> inputs;
    for (const QueryRecord* record : batch) {
      inputs.push_back(record == poisoned_
                           ? -std::numeric_limits<float>::infinity()
                           : 1.0f);
    }
    const size_t rows = batch.size();
    nn::Tensor hidden = nn::Relu(
        nn::MatMul(nn::Tensor::FromData(rows, 1, inputs), weight_));
    return nn::MatMul(nn::Tensor::FromData(1, rows, std::vector<float>(rows, 1.0f)),
                      hidden);
  }

  const QueryRecord* poisoned_;
  nn::Tensor weight_;
};

using TrainDeathTest = TrainTest;

TEST_F(TrainDeathTest, NaNInOneShardPartialAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto view = MakeView(*records_);
  PoisonedGradientModel model(view[17]);
  TrainerOptions options;
  options.max_epochs = 1;
  options.validation_fraction = 0.0;
  options.num_threads = 4;
  EXPECT_DEATH(TrainModel(&model, view, options), "non-finite gradient");
}

#endif  // NDEBUG

}  // namespace
}  // namespace zerodb::train
