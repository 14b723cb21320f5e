#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "common/thread_pool.h"
#include "datagen/corpus.h"
#include "models/e2e_model.h"
#include "models/mscn_model.h"
#include "models/zeroshot_model.h"
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

// The models the determinism tests train, both small: the zero-shot tree
// model and MSCN.
constexpr std::string_view kDeterminismModels[] = {"zero-shot", "mscn"};

std::unique_ptr<models::NeuralCostModel> MakeTinyModel(std::string_view kind,
                                                       uint64_t seed) {
  if (kind == "mscn") {
    models::MscnCostModel::Options options;
    options.hidden_dim = 16;
    options.init_seed = seed;
    return std::make_unique<models::MscnCostModel>(options);
  }
  models::ZeroShotCostModel::Options options;
  options.hidden_dim = 16;
  options.init_seed = seed;
  return std::make_unique<models::ZeroShotCostModel>(options);
}

TEST_F(TrainTest, ThreadCountDoesNotChangeLossHistory) {
  for (std::string_view kind : kDeterminismModels) {
    SCOPED_TRACE(kind);
    auto model_serial = MakeTinyModel(kind, 6);
    auto model_parallel = MakeTinyModel(kind, 6);
    auto view = MakeView(*records_);
    TrainerOptions options;
    options.max_epochs = 4;
    options.seed = 11;
    options.num_threads = 1;
    TrainResult serial = TrainModel(model_serial.get(), view, options);
    options.num_threads = 4;
    TrainResult parallel = TrainModel(model_parallel.get(), view, options);
    ExpectSameHistory(serial, parallel);
    // The trained weights match too: identical predictions, bit for bit.
    std::vector<const QueryRecord*> probe = {&(*records_)[0],
                                             &(*records_)[7]};
    std::vector<Millis> p_serial = model_serial->PredictMs(probe);
    std::vector<Millis> p_parallel = model_parallel->PredictMs(probe);
    ASSERT_EQ(p_serial.size(), p_parallel.size());
    for (size_t i = 0; i < p_serial.size(); ++i) {
      EXPECT_EQ(p_serial[i].value(), p_parallel[i].value());
    }
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
  for (std::string_view kind : kDeterminismModels) {
    for (size_t batch_size : {size_t(32), size_t(40)}) {
      TrainResult reference;
      bool have_reference = false;
      for (bool warm : {false, true}) {
        for (size_t threads : {size_t(1), size_t(2), size_t(3), size_t(4)}) {
          auto model = MakeTinyModel(kind, 6);
          if (warm) {
            model->Prepare(view);
            std::vector<uint32_t> rows(view.size());
            std::iota(rows.begin(), rows.end(), 0u);
            model->AccumulateGradients(rows, 1.0f);
          }
          TrainerOptions options;
          options.max_epochs = 3;
          options.batch_size = batch_size;
          options.seed = 11;
          options.num_threads = threads;
          TrainResult result = TrainModel(model.get(), view, options);
          if (!have_reference) {
            reference = result;
            have_reference = true;
          } else {
            SCOPED_TRACE(testing::Message()
                         << kind << " batch " << batch_size << " warm "
                         << warm << " threads " << threads);
            ExpectSameHistory(reference, result);
          }
        }
      }
    }
  }
}

// Golden values of one training run: every epoch's train and validation
// loss, an FNV-1a 64 hash of the trained parameters' bit patterns, and one of
// the predictions on records the run never saw.
struct GoldenPins {
  std::vector<std::pair<double, double>> losses;
  uint64_t weights_hash = 0;
  uint64_t predictions_hash = 0;
};

void Fnv1a(const void* data, size_t bytes, uint64_t* hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    *hash = (*hash ^ p[i]) * 0x100000001b3ULL;
  }
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// The pins as a C++ initializer, so a mismatch prints the new values.
std::string FormatPins(const GoldenPins& pins) {
  std::string out = "{{";
  char buffer[128];
  for (const auto& [train, val] : pins.losses) {
    std::snprintf(buffer, sizeof(buffer), "{%a, %a}, ", train, val);
    out += buffer;
  }
  std::snprintf(buffer, sizeof(buffer), "}, 0x%016llxULL, 0x%016llxULL}",
                static_cast<unsigned long long>(pins.weights_hash),
                static_cast<unsigned long long>(pins.predictions_hash));
  return out + buffer;
}

bool SamePins(const GoldenPins& a, const GoldenPins& b) {
  if (a.losses.size() != b.losses.size()) return false;
  for (size_t e = 0; e < a.losses.size(); ++e) {
    if (std::bit_cast<uint64_t>(a.losses[e].first) !=
            std::bit_cast<uint64_t>(b.losses[e].first) ||
        std::bit_cast<uint64_t>(a.losses[e].second) !=
            std::bit_cast<uint64_t>(b.losses[e].second)) {
      return false;
    }
  }
  return a.weights_hash == b.weights_hash &&
         a.predictions_hash == b.predictions_hash;
}

// Golden loss histories, weight hashes and prediction hashes for fixed
// seeds, at 1 and 4 trainer threads. They are the reference for every model's
// training arithmetic: a change meant to preserve it must leave them as they
// are. ops.cc spells every multiply-add as std::fma and allows no other
// contraction, so the kernels round alike on any compiler, vector width or
// sanitizer; the rest of the program computes in plain IEEE single and
// double precision, which x86-64 (SSE2, no FMA at baseline) rounds alike
// too. The pins therefore hold on any x86-64 build with glibc's libm. On a
// target whose baseline has FMA (aarch64), contraction elsewhere may move
// them.
TEST_F(TrainTest, TrainingMatchesGoldenPins) {
  const std::vector<const QueryRecord*> view = MakeView(*records_);
  const std::vector<const QueryRecord*> training(view.begin(),
                                                 view.end() - 20);
  const std::vector<const QueryRecord*> held_out(view.end() - 20, view.end());
  auto zero_shot = [](featurize::CardinalityMode mode, size_t hidden) {
    return [mode, hidden]() -> std::unique_ptr<models::NeuralCostModel> {
      models::ZeroShotCostModel::Options options;
      options.cardinality_mode = mode;
      options.hidden_dim = hidden;
      return std::make_unique<models::ZeroShotCostModel>(options);
    };
  };
  struct PinCase {
    std::string name;
    std::function<std::unique_ptr<models::NeuralCostModel>()> make;
    GoldenPins expected;
  };
  const std::vector<PinCase> cases = {
      {"zero-shot estimated hidden 64",
       zero_shot(featurize::CardinalityMode::kEstimated, 64),
       {{{0x1.4211ca5p-2, 0x1.d523e8p-2},
         {0x1.385de85555555p-2, 0x1.cfb494p-2},
         {0x1.43e565f2aaaabp-2, 0x1.c9b512p-2}},
        0xd57bbe133c07404fULL,
        0xe9be0d661ddee95cULL}},
      {"zero-shot exact hidden 64",
       zero_shot(featurize::CardinalityMode::kExact, 64),
       {{{0x1.421b32daaaaabp-2, 0x1.d51e28p-2},
         {0x1.3870bf4p-2, 0x1.cfc3c2p-2},
         {0x1.4440e25d55555p-2, 0x1.ca064ap-2}},
        0x54181d0543f95e0dULL,
        0x3d64883aced8155aULL}},
      {"zero-shot estimated hidden 20",
       zero_shot(featurize::CardinalityMode::kEstimated, 20),
       {{{0x1.3ee6d01p-2, 0x1.c8c4ep-2},
         {0x1.371df4b555555p-2, 0x1.c8b25ap-2},
         {0x1.45478d7eaaaabp-2, 0x1.c7f9cp-2}},
        0x1cc9c93dc13b65a6ULL,
        0x9afd7e7d25555352ULL}},
      {"zero-shot exact hidden 20",
       zero_shot(featurize::CardinalityMode::kExact, 20),
       {{{0x1.3ee3f68555555p-2, 0x1.c8bcc2p-2},
         {0x1.3715688aaaaabp-2, 0x1.c896dep-2},
         {0x1.453b020d55555p-2, 0x1.c7d01p-2}},
        0x2eb2b49a41408703ULL,
        0x3a958af836536933ULL}},
      {"e2e",
       [] {
         return std::make_unique<models::E2ECostModel>(
             models::E2ECostModel::Options());
       },
       {{{0x1.4204077555555p-2, 0x1.d5ae2p-2},
         {0x1.38bdb5b555555p-2, 0x1.d089dcp-2},
         {0x1.44436ca8p-2, 0x1.ca740ep-2}},
        0x3d7e3a8db09ba358ULL,
        0x32d89e3abf5a4632ULL}},
      {"mscn",
       [] {
         return std::make_unique<models::MscnCostModel>(
             models::MscnCostModel::Options());
       },
       {{{0x1.3bed391555555p-2, 0x1.bd0eb6p-2},
         {0x1.2d3d98d555555p-2, 0x1.b7a8f6p-2},
         {0x1.31e9a364p-2, 0x1.a86328p-2}},
        0x97468b990044238dULL,
        0xa9d1042f6b9632a8ULL}},
  };
  for (const PinCase& c : cases) {
    std::vector<GoldenPins> runs;
    for (size_t threads : {size_t(1), size_t(4)}) {
      SCOPED_TRACE(testing::Message() << c.name << ", threads " << threads);
      std::unique_ptr<models::NeuralCostModel> model = c.make();
      TrainerOptions options;
      options.max_epochs = 3;
      options.seed = 11;
      options.num_threads = threads;
      const TrainResult result = TrainModel(model.get(), training, options);
      GoldenPins pins;
      for (const obs::EpochStat& epoch : result.history) {
        pins.losses.emplace_back(epoch.train_loss, epoch.val_loss);
      }
      pins.weights_hash = kFnvOffset;
      const std::vector<float>& weights = model->Parameters().values;
      Fnv1a(weights.data(), weights.size() * sizeof(float),
            &pins.weights_hash);
      pins.predictions_hash = kFnvOffset;
      for (Millis ms : model->PredictMs(held_out)) {
        const double value = ms.value();
        Fnv1a(&value, sizeof(value), &pins.predictions_hash);
      }
      EXPECT_TRUE(SamePins(pins, c.expected)) << FormatPins(pins);
      runs.push_back(std::move(pins));
    }
    EXPECT_TRUE(SamePins(runs[0], runs[1]))
        << c.name << ": " << FormatPins(runs[0]) << " vs "
        << FormatPins(runs[1]);
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
      : poisoned_(poisoned) {
    *MutableParameters() = {{0.5f}, {0.0f}};
  }

  std::string Name() const override { return "poisoned-gradient"; }
  std::vector<Millis> PredictMs(
      const std::vector<const QueryRecord*>& records) override {
    return std::vector<Millis>(records.size(), Millis(1.0));
  }
  // The table is the records themselves.
  void Prepare(const std::vector<const QueryRecord*>& records) override {
    table_ = records;
  }
  // sum_i relu(x_i * w).
  float LossOnBatch(const std::vector<const QueryRecord*>& batch) override {
    float loss = 0.0f;
    for (const QueryRecord* record : batch) {
      const float h = Input(record) * Parameters().values[0];
      loss += h > 0.0f ? h : 0.0f;
    }
    return loss;
  }
  // Adds scale * x_i * relu'(x_i * w) per record into the weight's gradient.
  float AccumulateGradients(std::span<const uint32_t> rows,
                            float scale) override {
    std::vector<const QueryRecord*> batch;
    for (uint32_t row : rows) batch.push_back(table_.at(row));
    for (const QueryRecord* record : batch) {
      const float x = Input(record);
      const float active = x * Parameters().values[0] > 0.0f ? 1.0f : 0.0f;
      MutableParameters()->grads[0] += x * (scale * active);
    }
    return LossOnBatch(batch) * scale;
  }
  std::unique_ptr<models::NeuralCostModel> CloneReplica() const override {
    auto replica = std::make_unique<PoisonedGradientModel>(poisoned_);
    replica->table_ = table_;
    return replica;
  }

 private:
  float Input(const QueryRecord* record) const {
    return record == poisoned_ ? -std::numeric_limits<float>::infinity()
                               : 1.0f;
  }

  const QueryRecord* poisoned_;
  std::vector<const QueryRecord*> table_;
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
