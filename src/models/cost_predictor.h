#ifndef ZERODB_MODELS_COST_PREDICTOR_H_
#define ZERODB_MODELS_COST_PREDICTOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"
#include "models/record.h"
#include "nn/parameters.h"

namespace zerodb::models {

/// Anything that can predict query runtimes. The experiment harness only
/// needs this.
class CostPredictor {
 public:
  virtual ~CostPredictor() = default;

  virtual std::string Name() const = 0;

  /// Predicted runtimes, one per record. Strongly typed Millis: readouts
  /// come out of log space through Millis::FromLog, so a raw log-space or
  /// normalized value cannot leak out of a model (common/units.h).
  virtual std::vector<Millis> PredictMs(
      const std::vector<const QueryRecord*>& records) = 0;
};

/// What NeuralCostModel::Prepare builds: each training record featurized
/// once (`Rows`, one entry per record in Prepare's order, unnormalized) and
/// its log runtime. Normalization is applied when a pass reads a row, so
/// the table never goes stale. Read-only once built: a model and its
/// replicas share it across threads.
template <typename Rows>
struct TrainingTable {
  Rows rows;
  std::vector<LogMillis> log_runtimes;
};

/// Queries per forward pass outside training (validation and serving), in
/// every NeuralCostModel: bounds the activations a large call leaves in the
/// model's scratch. No pass mixes rows of different queries, so the value
/// reaches no result.
inline constexpr size_t kPassChunk = 64;

/// 0, 1, ..., kPassChunk - 1: the ids of one pass's freshly featurized
/// plans or queries.
inline constexpr std::array<uint32_t, kPassChunk> kPassChunkIds = [] {
  std::array<uint32_t, kPassChunk> ids{};
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}();

/// A gradient-trained cost model (the zero-shot model and the E2E / MSCN
/// baselines). The Trainer drives this interface; serving goes through
/// PredictMs. Each model runs every call through one forward pass over
/// model-owned scratch, with a hand-written backward for training.
class NeuralCostModel : public CostPredictor {
 public:
  /// Builds the model's TrainingTable over `records` (row i is records[i])
  /// and fits feature and target normalization on it. Must be called
  /// before AccumulateGradients; a later call replaces the table.
  virtual void Prepare(
      const std::vector<const QueryRecord*>& records) = 0;

  /// Forward + loss on a batch, with no gradient (validation). Featurizes
  /// the records afresh, in passes of kPassChunk.
  virtual float LossOnBatch(const std::vector<const QueryRecord*>& batch) = 0;

  /// Forward + backward on rows `rows` of the last Prepare's table: adds
  /// d(scale * loss)/dθ into Parameters().grads and returns scale * loss,
  /// through nn::ScaledHuberLossBackward and the model's backward pass. The
  /// trainer passes shard_size / batch_size, so summed shard results give
  /// the batch mean.
  virtual float AccumulateGradients(std::span<const uint32_t> rows,
                                    float scale) = 0;

  /// Every trainable parameter, in the model's one block (nn/parameters.h):
  /// the constructor builds its layers into it.
  const nn::ParameterBlock& Parameters() const { return parameters_; }
  nn::ParameterBlock* MutableParameters() { return &parameters_; }

  /// A same-architecture copy with its own parameter block, holding the
  /// same parameter values and normalization state as this model, and
  /// sharing its training table. The parallel trainer gives each shard
  /// executor a replica so concurrent backward passes never touch shared
  /// gradient buffers; replicas are re-synced from the trained model's
  /// parameter values every step.
  virtual std::unique_ptr<NeuralCostModel> CloneReplica() const = 0;

  /// Counts weight commits: a finished train::TrainModel run, LoadWeights,
  /// CopyTreeStateFrom. Serving caches mix it into their keys, so a cached
  /// prediction never outlives the weights that produced it. Writes to
  /// parameter values through MutableParameters() do not count.
  uint64_t generation() const { return generation_; }

  /// Records a weight commit (see generation()).
  void BumpGeneration() { ++generation_; }

 private:
  nn::ParameterBlock parameters_;
  uint64_t generation_ = 0;
};

}  // namespace zerodb::models

#endif  // ZERODB_MODELS_COST_PREDICTOR_H_
