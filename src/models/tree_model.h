#ifndef ZERODB_MODELS_TREE_MODEL_H_
#define ZERODB_MODELS_TREE_MODEL_H_

#include <memory>
#include <span>
#include <string>
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
/// normalization, the training table and one level-batched forward pass
/// over model-owned scratch, with a hand-written backward. Training,
/// validation and serving all run it: training over the table's rows,
/// validation and serving over plans featurized afresh into scratch.
class TreeMessagePassingModel : public NeuralCostModel {
 public:
  explicit TreeMessagePassingModel(const TreeModelConfig& config);

  /// Featurizes every record's plan once into the table's graph and fits
  /// feature normalization over all of its rows.
  void Prepare(const std::vector<const QueryRecord*>& records) override;
  float LossOnBatch(const std::vector<const QueryRecord*>& batch) override;
  float AccumulateGradients(std::span<const uint32_t> rows,
                            float scale) override;
  /// Forwards to ForwardBatch.
  std::vector<Millis> PredictMs(
      const std::vector<const QueryRecord*>& records) override;
  /// The serving path: featurizes the plans, runs the forward pass over
  /// them kPassChunk at a time, then denormalizes. Row arithmetic never
  /// mixes plans, so each prediction depends on its own record only,
  /// whatever else shares its call. The estimator and benches call it on the
  /// concrete type.
  std::vector<Millis> ForwardBatch(
      const std::vector<const QueryRecord*>& records);

  /// Persists the parameter block + normalization statistics to a binary
  /// file (nn/serialize.h). Load must be called on a model constructed with
  /// the same config.
  Status SaveWeights(const std::string& path) const;
  Status LoadWeights(const std::string& path);

  const TreeModelConfig& config() const { return config_; }

 protected:
  /// Copies `other`'s parameter block values and normalization state into
  /// this model and shares its training table (same config required).
  /// Subclass CloneReplica implementations construct a fresh model from
  /// their stored options and then call this — the replica gets identical
  /// values in its own block.
  void CopyTreeStateFrom(const TreeMessagePassingModel& other);

  /// The featurizer of the model's plans (implemented by subclasses).
  virtual const featurize::TreeFeaturizer& featurizer() const = 0;

  /// Maps a graph node's op_type to the encoder id in [0, num_encoders).
  virtual size_t EncoderIdFor(size_t op_type) const = 0;

 private:
  /// The forward pass over plans `plans` of `graph`; returns one normalized
  /// log-runtime prediction per plan, valid until the next call. All nodes
  /// are laid out in one global order (plan by plan, node index order).
  /// Each encoder MLP runs once over its nodes' rows in that order, each
  /// normalized (FeatureNorm::Apply) as it is packed; each level's combine
  /// MLP once over the level's nodes (children's hidden rows summed in
  /// `children` order next to the node's encoding), and the readout once
  /// over the roots. Encoding and hidden rows are stored as 0.0f + x, the
  /// value a scatter-add into a zeroed matrix yields. Keeps every
  /// activation for Backward.
  std::span<const float> Forward(const featurize::PlanGraph& graph,
                                 std::span<const uint32_t> plans);

  /// The backward of the last Forward: given d(loss)/d(prediction) per
  /// plan, adds every parameter's gradient into its grad buffer. Combine
  /// gradients accumulate level by level, highest level first; every
  /// hidden-state and encoding gradient row receives exactly one
  /// contribution, added to +0.0f.
  void Backward(std::span<const float> d_predictions);

  /// Appends one record's featurized plan to `graph`.
  void AppendRecord(const QueryRecord& record,
                    featurize::PlanGraph* graph) const;

  /// Featurizes `records` into scratch_.graph and runs Forward over them,
  /// kPassChunk at a time; returns one normalized prediction per record.
  /// Results equal one pass over all of them, since no row mixes plans.
  std::vector<float> ForwardChunked(
      std::span<const QueryRecord* const> records);

  TreeModelConfig config_;
  std::vector<nn::Mlp> encoders_;
  nn::Mlp combine_;
  nn::Mlp readout_;
  featurize::FeatureNorm feature_norm_;
  featurize::TargetNorm target_norm_;
  /// The last Prepare's records, one plan per record; shared read-only
  /// with every replica.
  std::shared_ptr<const TrainingTable<featurize::PlanGraph>> table_;

  /// Forward's activations and Backward's gradients. Capacities reach
  /// steady state after the largest batch; every element a call reads, it
  /// first writes, so leftovers from a larger batch never leak into a
  /// result. The model is thread-compatible, not thread-safe, so one pass
  /// at a time owns these.
  struct Scratch {
    featurize::PlanGraph graph;  ///< ForwardChunked's featurized plans
    std::vector<float> targets;
    // The batch's nodes by global id.
    std::vector<uint32_t> children_flat;   ///< CSR child ids, parent-major
    std::vector<uint32_t> child_offsets;   ///< size total_nodes + 1
    std::vector<uint32_t> root_ids;        ///< per plan
    std::vector<std::vector<uint32_t>> encoder_ids;  ///< nodes per encoder
    std::vector<std::vector<uint32_t>> level_ids;    ///< nodes per level
    // Forward activations.
    std::vector<std::vector<float>> encoder_inputs;  ///< packed features
    std::vector<nn::MlpTape> encoder_tapes;
    std::vector<float> encodings;                    ///< (total_nodes, hidden)
    std::vector<std::vector<float>> combine_inputs;  ///< per level
    std::vector<nn::MlpTape> combine_tapes;
    std::vector<float> hidden;                       ///< (total_nodes, hidden)
    std::vector<float> roots;                        ///< (plans, hidden)
    nn::MlpTape readout_tape;
    // Backward gradients.
    std::vector<float> d_predictions;
    std::vector<float> d_roots;
    std::vector<float> d_hidden;
    std::vector<float> d_encodings;
    std::vector<float> d_rows;           ///< one MLP call's output gradient
    std::vector<float> d_combine_input;  ///< (level nodes, 2 * hidden)
    std::vector<float> mlp;              ///< Mlp::BackwardRows scratch
  };
  Scratch scratch_;
};

}  // namespace zerodb::models

#endif  // ZERODB_MODELS_TREE_MODEL_H_
