#ifndef ZERODB_TRAIN_TRAINER_H_
#define ZERODB_TRAIN_TRAINER_H_

#include <cstdint>
#include <vector>

#include "models/cost_predictor.h"
#include "obs/telemetry.h"
#include "train/dataset.h"

namespace zerodb::train {

struct TrainerOptions {
  size_t max_epochs = 60;
  size_t batch_size = 32;
  float learning_rate = 1e-3f;
  float weight_decay = 1e-5f;
  double grad_clip_norm = 10.0;
  double validation_fraction = 0.1;
  size_t early_stop_patience = 10;  ///< epochs without val improvement
  uint64_t seed = 99;
  /// Worker threads for the intra-epoch gradient computation. 0 = size of
  /// the global ThreadPool (hardware_concurrency unless overridden via
  /// ZERODB_THREADS / --threads); 1 = serial. Any value yields bit-identical
  /// loss histories: every mini-batch is split into fixed 8-record shards
  /// whose partial gradients are reduced in ascending shard order — the
  /// arithmetic never depends on which thread ran which shard.
  size_t num_threads = 0;
};

struct TrainResult {
  size_t epochs_run = 0;
  double final_train_loss = 0.0;
  double best_validation_loss = 0.0;
  bool early_stopped = false;
  /// One entry per epoch run: train/val loss, learning rate, gradient norm.
  std::vector<obs::EpochStat> history;
};

/// Mini-batch Adam training with validation-based early stopping and
/// best-weights restoration — the standard recipe the paper's models use.
///
/// Thread-compatible, not thread-safe (DESIGN.md "Concurrency discipline"):
/// the model and the records must not be touched by other threads for the
/// duration of the call. Training runs over disjoint models are safe
/// concurrently (logging and the global metrics registry, the only shared
/// state reached from here, are thread-safe).
///
/// Internally the gradient computation fans minibatch shards out over the
/// global ThreadPool (see TrainerOptions::num_threads): each shard executor —
/// the caller's model or one of its replicas — runs one contiguous range of
/// shards per batch, in exactly one pool task.
TrainResult TrainModel(models::NeuralCostModel* model,
                       const std::vector<const QueryRecord*>& records,
                       const TrainerOptions& options = TrainerOptions());

}  // namespace zerodb::train

#endif  // ZERODB_TRAIN_TRAINER_H_
