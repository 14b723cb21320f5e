#ifndef ZERODB_MODELS_COST_PREDICTOR_H_
#define ZERODB_MODELS_COST_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "nn/tensor.h"
#include "models/record.h"

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

/// A gradient-trained cost model (the zero-shot model and the E2E / MSCN
/// baselines). The Trainer drives this interface; serving goes through
/// PredictMs, which the tree models implement with their tensor-free
/// per-plan pass (TreeMessagePassingModel::ForwardBatch).
class NeuralCostModel : public CostPredictor {
 public:
  /// Fits feature and target normalization on the training records. Must be
  /// called exactly once before training.
  virtual void Prepare(
      const std::vector<const QueryRecord*>& records) = 0;

  /// Forward + loss on a batch.
  virtual nn::Tensor LossOnBatch(
      const std::vector<const QueryRecord*>& batch) = 0;

  /// All trainable parameters.
  virtual std::vector<nn::Tensor> Parameters() const = 0;

  /// A same-architecture copy with its own parameter storage, holding the
  /// same parameter values and normalization state as this model. The
  /// parallel trainer gives each shard executor a replica so concurrent
  /// backward passes never touch shared gradient buffers; replicas are
  /// re-synced from the trained model's parameter values every step.
  virtual std::unique_ptr<NeuralCostModel> CloneReplica() const = 0;

  /// Counts weight commits: a finished train::TrainModel run, LoadWeights,
  /// CopyTreeStateFrom. Serving caches mix it into their keys, so a cached
  /// prediction never outlives the weights that produced it. Writes to
  /// parameter values through Parameters() do not count.
  uint64_t generation() const { return generation_; }

  /// Records a weight commit (see generation()).
  void BumpGeneration() { ++generation_; }

 private:
  uint64_t generation_ = 0;
};

}  // namespace zerodb::models

#endif  // ZERODB_MODELS_COST_PREDICTOR_H_
