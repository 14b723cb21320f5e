#ifndef ZERODB_MODELS_TREE_MODEL_H_
#define ZERODB_MODELS_TREE_MODEL_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "featurize/normalization.h"
#include "featurize/plan_graph.h"
#include "models/cost_predictor.h"
#include "nn/layers.h"

namespace zerodb::models {

/// Configuration shared by the tree-structured cost models.
struct TreeModelConfig {
  size_t feature_dim = 0;    ///< per-node feature width
  size_t num_encoders = 1;   ///< 1 = shared encoder (E2E), 9 = per-op (zero-shot)
  size_t hidden_dim = 64;
  size_t encoder_layers = 2;   ///< hidden layers in each node encoder MLP
  size_t combine_layers = 2;   ///< hidden layers in the combine MLP
  size_t readout_layers = 2;   ///< hidden layers in the readout MLP
  uint64_t init_seed = 1;
};

/// The paper's model architecture (Section 3.1): encode each plan node with
/// a (node-type-specific) MLP into a hidden state, then combine bottom-up —
/// children's hidden states are summed (DeepSets) and merged with the
/// parent's encoding through an MLP — until the root's hidden state is fed
/// into a readout MLP that predicts (normalized log) runtime.
///
/// Subclasses provide the featurizer; this class owns parameters,
/// normalization and two forward passes over the same arithmetic: the
/// batched autodiff pass training differentiates (nodes grouped by encoder
/// type, levels processed with gather/scatter), and the tensor-free
/// per-plan pass serving runs.
class TreeMessagePassingModel : public NeuralCostModel {
 public:
  explicit TreeMessagePassingModel(const TreeModelConfig& config);

  void Prepare(const std::vector<const QueryRecord*>& records) override;
  nn::Tensor LossOnBatch(
      const std::vector<const QueryRecord*>& batch) override;
  /// Forwards to ForwardBatch.
  std::vector<Millis> PredictMs(
      const std::vector<const QueryRecord*>& records) override;
  /// The serving path, one record at a time: featurize and normalize the
  /// plan, compute it bottom-up from its PlanGraph rows into model-owned
  /// scratch (PredictNormalized), then denormalize — no Tensor, autodiff
  /// node, arena, gather/scatter op or thread pool. Each prediction depends
  /// on its own record only and is bit-identical to the autodiff Forward's
  /// (ModelsTest.TensorFreePassMatchesAutodiffBitForBit). The estimator and
  /// benches call it on the concrete type.
  std::vector<Millis> ForwardBatch(
      const std::vector<const QueryRecord*>& records);
  std::vector<nn::Tensor> Parameters() const override;

  /// Persists weights + normalization statistics to a binary file. Load
  /// must be called on a model constructed with the same config.
  Status SaveWeights(const std::string& path) const;
  Status LoadWeights(const std::string& path);

  const TreeModelConfig& config() const { return config_; }

 protected:
  /// Copies `other`'s parameter values and normalization state into this
  /// model (same config required). Subclass CloneReplica implementations
  /// construct a fresh model from their stored options and then call this —
  /// the replica gets identical values in independent storage.
  void CopyTreeStateFrom(const TreeMessagePassingModel& other);

  /// Featurizes one record's plan (implemented by subclasses).
  virtual featurize::PlanGraph FeaturizeRecord(
      const QueryRecord& record) const = 0;

  /// Maps a graph node's op_type to the encoder id in [0, num_encoders).
  virtual size_t EncoderIdFor(size_t op_type) const = 0;

 private:
  /// Differential tests reach both forward passes.
  friend class TreeModelTestPeer;

  /// Batched autodiff forward pass over the graphs; returns (B, 1)
  /// normalized log-runtime predictions. LossOnBatch's path.
  nn::Tensor Forward(const std::vector<const featurize::PlanGraph*>& graphs);

  /// The tensor-free pass for one plan: walks the nodes in reverse index
  /// order (children follow parents), runs each node's encoder with
  /// Mlp::ForwardRow, sums the children's hidden rows in `children` order
  /// and combines, then reads out the root. Reproduces Forward's zeroed
  /// scatter targets as 0.0f + x, so the normalized log-runtime it returns
  /// equals Forward's row for this plan bit for bit.
  float PredictNormalized(const featurize::PlanGraph& graph);

  featurize::PlanGraph FeaturizeNormalized(
      const QueryRecord& record) const;

  /// Training-path featurization through the graph cache: plans recur every
  /// epoch, and featurizing them is the dominant per-batch rebuild cost. The
  /// cache is per-model-instance (each trainer replica fills its own) and
  /// cleared whenever normalization changes — featurization is
  /// deterministic, so cached and fresh graphs are identical and the loss
  /// history does not depend on cache state. The returned pointer is valid
  /// until the next Prepare/LoadWeights/CopyTreeStateFrom (cached graphs) or
  /// the next LossOnBatch (overflow graphs). Not thread-safe; only the
  /// serial LossOnBatch path uses it.
  const featurize::PlanGraph* FeaturizeNormalizedCached(
      const QueryRecord& record);

  /// Drops every cached graph; called whenever normalization state changes.
  void InvalidateGraphCache();

  TreeModelConfig config_;
  std::vector<nn::Mlp> encoders_;
  nn::Mlp combine_;
  nn::Mlp readout_;
  featurize::FeatureNorm feature_norm_;
  featurize::TargetNorm target_norm_;

  /// key = FingerprintCombine(FingerprintPlan(plan), db name). Values are
  /// stable across inserts (node-based map), so Forward can hold pointers.
  std::unordered_map<uint64_t, featurize::PlanGraph> graph_cache_;
  /// Graphs featurized when the cache is full; cleared per batch. Deque:
  /// growth must not move earlier elements mid-batch.
  std::deque<featurize::PlanGraph> overflow_graphs_;

  /// Reused per-batch scratch (capacities reach steady state after the
  /// first batch). The model is thread-compatible, not thread-safe, so one
  /// forward pass at a time owns these.
  struct ForwardScratch {
    std::vector<const featurize::PlanGraph*> batch_graphs;
    std::vector<uint32_t> encoder_of;   ///< per global node
    std::vector<uint32_t> level_of;     ///< per global node
    std::vector<const std::vector<float>*> features_of;
    std::vector<uint32_t> children_flat;   ///< CSR child ids, parent-major
    std::vector<uint32_t> child_offsets;   ///< size total_nodes + 1
    std::vector<uint32_t> positions;       ///< per-encoder gather scratch
    std::vector<float> features;           ///< per-encoder packed features
    std::vector<uint32_t> level_ids;
    std::vector<uint32_t> child_ids;
    std::vector<uint32_t> child_parents;
  };
  ForwardScratch scratch_;

  /// PredictNormalized's rows; same ownership rule as ForwardScratch.
  struct InferenceScratch {
    std::vector<float> hidden;         ///< (nodes, hidden) per plan
    std::vector<float> combine_input;  ///< [encoding, child_sum]
    std::vector<float> mlp;            ///< Mlp::ForwardRow ping-pong rows
  };
  InferenceScratch inference_;
};

}  // namespace zerodb::models

#endif  // ZERODB_MODELS_TREE_MODEL_H_
