#ifndef ZERODB_MODELS_MSCN_MODEL_H_
#define ZERODB_MODELS_MSCN_MODEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "featurize/mscn_featurizer.h"
#include "featurize/normalization.h"
#include "models/cost_predictor.h"
#include "nn/layers.h"

namespace zerodb::models {

/// The MSCN baseline [Kipf et al. 2019] applied to cost estimation as in
/// the paper: three per-element MLPs (tables / joins / predicates), mean
/// pooling per set, concat, output MLP. One-hot (database-dependent)
/// features and no plan structure — the paper reports it as markedly less
/// accurate, with high variance.
class MscnCostModel : public NeuralCostModel {
 public:
  struct Options {
    size_t hidden_dim = 64;
    uint64_t init_seed = 3;
  };

  explicit MscnCostModel(const Options& options);

  std::string Name() const override { return "MSCN"; }

  /// Featurizes every record's query once into the table's sets.
  void Prepare(const std::vector<const QueryRecord*>& records) override;
  float LossOnBatch(const std::vector<const QueryRecord*>& batch) override;
  float AccumulateGradients(std::span<const uint32_t> rows,
                            float scale) override;
  std::vector<Millis> PredictMs(
      const std::vector<const QueryRecord*>& records) override;

  std::unique_ptr<NeuralCostModel> CloneReplica() const override;

 private:
  /// The forward pass over queries `queries` of `sets`; returns one
  /// normalized log-runtime prediction per query, valid until the next
  /// call. Each set
  /// type's encoder runs once over the batch's elements in query order;
  /// each query's encodings are summed onto +0.0f in element order and the
  /// sum is multiplied by 1/|set| (0 for an empty set). The three pooled
  /// blocks sit side by side in the (queries, 3 * hidden) rows the output
  /// MLP reads. Keeps every activation for Backward.
  std::span<const float> Forward(std::span<const featurize::MscnSets> sets,
                                 std::span<const uint32_t> queries);

  /// The backward of the last Forward: given d(loss)/d(prediction) per
  /// query, adds every parameter's gradient into its grad buffer — the
  /// output MLP, then per set type d(pooled) * 1/|set| gathered back to the
  /// element rows and the encoder. Every parameter gets one LinearBackward
  /// contribution per call.
  void Backward(std::span<const float> d_predictions);

  /// Featurizes `records` and runs Forward over them in passes of at most
  /// kPassChunk queries, so a large validation or serving call does not
  /// grow the scratch; returns one normalized prediction per record.
  /// Results equal one pass over all of them, since no row mixes queries.
  std::vector<float> ForwardChunked(
      std::span<const QueryRecord* const> records);

  Options options_;
  featurize::MscnFeaturizer featurizer_;
  /// One encoder per set type: tables, joins, predicates.
  std::array<nn::Mlp, 3> encoders_;
  nn::Mlp output_;
  featurize::TargetNorm target_norm_;
  /// The last Prepare's records, one MscnSets per record; shared read-only
  /// with every replica.
  std::shared_ptr<const TrainingTable<std::vector<featurize::MscnSets>>>
      table_;

  /// One set type's rows in the last Forward, and their gradients.
  struct SetRows {
    std::vector<float> inputs;     ///< the batch's elements, packed
    std::vector<uint32_t> owners;  ///< each element's query
    std::vector<float> factors;    ///< per query: 1/|set|, 0 when empty
    nn::MlpTape tape;
    std::vector<float> d_sums;      ///< (queries, hidden)
    std::vector<float> d_elements;  ///< (elements, hidden)
  };

  /// Forward's activations and Backward's gradients, reused across calls.
  /// Every element a call reads, it first writes. The model is
  /// thread-compatible, not thread-safe, so one pass at a time owns these.
  struct Scratch {
    std::vector<featurize::MscnSets> sets;  ///< ForwardChunked's queries
    std::vector<float> targets;
    std::array<SetRows, 3> set_rows;
    std::vector<float> pooled;  ///< (queries, 3 * hidden)
    nn::MlpTape output_tape;
    std::vector<float> d_predictions;
    std::vector<float> d_pooled;  ///< (queries, 3 * hidden)
    std::vector<float> mlp;       ///< Mlp::BackwardRows scratch
  };
  Scratch scratch_;
};

}  // namespace zerodb::models

#endif  // ZERODB_MODELS_MSCN_MODEL_H_
