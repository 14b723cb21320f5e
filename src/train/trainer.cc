#include "train/trainer.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>
#include <span>

#include "common/check.h"
#include "common/thread_pool.h"
#include "nn/optimizer.h"
#include "nn/validate.h"
#include "obs/metrics.h"
#include "obs/trace_event.h"

namespace zerodb::train {

namespace {

/// Records per gradient shard. Fixed (never derived from the thread count)
/// so shard boundaries — and therefore every floating-point reduction — are
/// identical for any TrainerOptions::num_threads.
constexpr size_t kShardRecords = 8;

/// One mini-batch's partial gradients, one slot per shard, reduced in
/// ascending shard order after all shards complete.
struct ShardResult {
  double loss = 0.0;  ///< shard loss pre-scaled by shard_size / batch_size
  std::vector<float> grads;  ///< laid out like the parameter block
};

/// Runs one shard of training-table rows on `model`: zero grads, forward +
/// backward on the shard scaled by shard_size / batch_size (so summing
/// shard losses/gradients reconstructs the batch mean), then harvests the
/// gradient buffer.
void RunShard(models::NeuralCostModel* model, std::span<const uint32_t> shard,
              size_t batch_size, ShardResult* out) {
  std::vector<float>& grads = model->MutableParameters()->grads;
  std::fill(grads.begin(), grads.end(), 0.0f);
  const float loss = model->AccumulateGradients(
      shard, static_cast<float>(shard.size()) / static_cast<float>(batch_size));
  ZDB_DCHECK_OK(nn::ValidateFinite(std::span<const float>(&loss, 1),
                                   "trainer forward: shard loss"));
  out->loss = static_cast<double>(loss);
  // Swap, not copy: the block takes the slot's previous buffer (the same
  // size, see TrainModel), which the next shard zeroes before the backward
  // accumulates into it.
  ZDB_DCHECK_EQ(out->grads.size(), grads.size());
  out->grads.swap(grads);
}

}  // namespace

TrainResult TrainModel(models::NeuralCostModel* model,
                       const std::vector<const QueryRecord*>& records,
                       const TrainerOptions& options) {
  ZDB_CHECK(model != nullptr);
  ZDB_CHECK(!records.empty());

  Rng rng(options.seed);
  std::vector<const QueryRecord*> shuffled = records;
  rng.Shuffle(&shuffled);

  // Split train / validation.
  size_t val_count = static_cast<size_t>(
      static_cast<double>(shuffled.size()) * options.validation_fraction);
  if (shuffled.size() >= 20 && val_count == 0) val_count = 1;
  val_count = std::min(val_count, shuffled.size() - 1);
  std::vector<const QueryRecord*> validation(shuffled.begin(),
                                             shuffled.begin() + val_count);
  std::vector<const QueryRecord*> training(shuffled.begin() + val_count,
                                           shuffled.end());

  ZDB_CHECK_GT(options.batch_size, 0u);
  // The training records are featurized here, once: every batch names
  // rows of the table Prepare builds (row i = training[i]), which the
  // replicas share.
  model->Prepare(training);
  std::vector<uint32_t> order(training.size());
  std::iota(order.begin(), order.end(), 0u);
  nn::ParameterBlock* main_params = model->MutableParameters();
  nn::Adam optimizer(main_params, options.learning_rate, 0.9f, 0.999f, 1e-8f,
                     options.weight_decay);

  // Shard-parallel gradient setup. Replicas are cloned after Prepare so they
  // carry the fitted normalization and share the table; parameter values
  // are re-synced from the caller's model at the start of every batch's
  // replica task (Step changes them).
  size_t want_threads = options.num_threads;
  if (want_threads == 0) want_threads = ThreadPool::Global()->num_threads();
  const size_t max_shards =
      (options.batch_size + kShardRecords - 1) / kShardRecords;
  const size_t executors =
      std::max<size_t>(1, std::min(want_threads, max_shards));
  ThreadPool* shard_pool = executors > 1 ? ThreadPool::Global() : nullptr;

  // One shard executor per model — the caller's first, then executors - 1
  // replicas. Every batch, executor e runs one contiguous shard range inside
  // a single pool task, so its model is only ever touched by one thread at
  // a time (the ParallelFor join orders one batch before the next).
  std::vector<std::unique_ptr<models::NeuralCostModel>> replicas;
  std::vector<models::NeuralCostModel*> shard_models = {model};
  for (size_t e = 1; e < executors; ++e) {
    replicas.push_back(model->CloneReplica());
    ZDB_CHECK(replicas.back() != nullptr) << model->Name();
    shard_models.push_back(replicas.back().get());
  }

  TrainResult result;
  double best_val = std::numeric_limits<double>::infinity();
  std::vector<float> best_weights = main_params->values;
  size_t epochs_since_best = 0;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* epochs_counter = registry.GetCounter("train.epochs");
  obs::Counter* batches_counter = registry.GetCounter("train.batches");

  // Per-batch working state, hoisted out of the loops so batch N reuses
  // batch N-1's capacity: the shard result slots (kept at max_shards so the
  // final partial batch never shrinks — and re-grows — the gradient buffers
  // inside) and the shard partials' pointers.
  std::vector<ShardResult> shard_results(max_shards);
  // Full-size from the start: RunShard swaps these with the executors'
  // gradient buffers, and the reduction writes the caller's gradients in
  // place, so every buffer must always hold the block's size.
  for (ShardResult& slot : shard_results) {
    slot.grads.resize(main_params->size());
  }
  std::vector<const float*> partials(max_shards);

  for (size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    obs::TimelineScope epoch_scope("train.epoch", "train");
    epoch_scope.AddArg("epoch", static_cast<double>(epoch + 1));
    // Shuffle's draws depend only on the length, so permuting row ids
    // visits the records in the order shuffling them would.
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    double grad_norm_sum = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < order.size(); start += options.batch_size) {
      obs::TimelineScope batch_scope("train.batch", "train");
      const std::span<const uint32_t> batch =
          std::span<const uint32_t>(order).subspan(
              start, std::min(options.batch_size, order.size() - start));
      const size_t batch_size = batch.size();
      const size_t num_shards =
          (batch_size + kShardRecords - 1) / kShardRecords;

      // Advance the trainer Rng once per shard. Nothing reads these draws,
      // but they are part of the Rng stream the next epoch's shuffle comes
      // from: skipping them would reorder every later epoch and change every
      // pinned loss history and trained model.
      for (size_t s = 0; s < num_shards; ++s) rng.NextUint64();

      // Static shard mapping: executor e of `used` runs shards
      // [e * num_shards / used, (e + 1) * num_shards / used). Shard results
      // land in per-shard slots, so the mapping never reaches the arithmetic.
      const size_t used = std::min(executors, num_shards);
      auto run_executor = [&](size_t e) {
        if (e > 0) {
          // A replica re-reads the parameters the last Step produced inside
          // its own task, off the caller's critical path. Concurrent readers
          // only: nothing writes main_params' values until the join.
          obs::TimelineScope sync_scope("train.sync", "train");
          shard_models[e]->MutableParameters()->values = main_params->values;
        }
        for (size_t s = e * num_shards / used; s < (e + 1) * num_shards / used;
             ++s) {
          obs::TimelineScope shard_scope("train.shard", "train");
          shard_scope.AddArg("shard", static_cast<double>(s));
          const size_t shard_begin = s * kShardRecords;
          const std::span<const uint32_t> shard = batch.subspan(
              shard_begin, std::min(kShardRecords, batch_size - shard_begin));
          RunShard(shard_models[e], shard, batch_size, &shard_results[s]);
        }
      };
      ParallelFor(shard_pool, 0, used, /*grain=*/1,
                  [&](size_t exec_begin, size_t exec_end) {
                    for (size_t e = exec_begin; e < exec_end; ++e) {
                      run_executor(e);
                    }
                  });

      // Fixed-order reduction: shard partials land on the caller's model in
      // ascending shard order, making the batch gradient (and loss) exactly
      // reproducible for any thread count. One pass over the block
      // overwrites the gradients (no separate zeroing) and flags non-finite
      // sums; only then does the full validator run, to name the bad
      // element.
      double batch_loss = 0.0;
      {
        obs::TimelineScope reduce_scope("train.reduce", "train");
        for (size_t s = 0; s < num_shards; ++s) {
          batch_loss += shard_results[s].loss;
          partials[s] = shard_results[s].grads.data();
        }
        if (!nn::SumShardGradients(
                std::span<const float* const>(partials.data(), num_shards),
                main_params->grads)) {
          ZDB_DCHECK_OK(nn::ValidateFiniteGradients(main_params->grads,
                                                    "trainer backward"));
        }
      }
      {
        obs::TimelineScope step_scope("train.step", "train");
        grad_norm_sum += optimizer.ClipGradNorm(options.grad_clip_norm);
        optimizer.Step();
      }
      epoch_loss += batch_loss;
      ++batches;
    }
    result.final_train_loss =
        epoch_loss / static_cast<double>(std::max<size_t>(batches, 1));
    result.epochs_run = epoch + 1;
    epochs_counter->Add(1);
    batches_counter->Add(static_cast<int64_t>(batches));

    // Validation (falls back to train loss when no validation split).
    double val_loss = result.final_train_loss;
    if (!validation.empty()) {
      obs::TimelineScope validate_scope("train.validate", "train");
      val_loss = model->LossOnBatch(validation);
    }

    obs::EpochStat stat;
    stat.epoch = epoch + 1;
    stat.train_loss = result.final_train_loss;
    stat.val_loss = val_loss;
    stat.learning_rate = options.learning_rate;
    stat.grad_norm =
        grad_norm_sum / static_cast<double>(std::max<size_t>(batches, 1));
    result.history.push_back(stat);
    if (val_loss < best_val - 1e-6) {
      best_val = val_loss;
      best_weights = main_params->values;
      epochs_since_best = 0;
    } else {
      ++epochs_since_best;
      if (epochs_since_best >= options.early_stop_patience) {
        result.early_stopped = true;
        break;
      }
    }
  }
  main_params->values = best_weights;
  model->BumpGeneration();
  result.best_validation_loss = best_val;
  return result;
}

}  // namespace zerodb::train
