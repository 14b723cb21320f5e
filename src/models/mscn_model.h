#ifndef ZERODB_MODELS_MSCN_MODEL_H_
#define ZERODB_MODELS_MSCN_MODEL_H_

#include <memory>
#include <string>

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

  void Prepare(const std::vector<const QueryRecord*>& records) override;
  float LossOnBatch(const std::vector<const QueryRecord*>& batch) override;
  float AccumulateGradients(const std::vector<const QueryRecord*>& batch,
                            float scale) override;
  std::vector<Millis> PredictMs(
      const std::vector<const QueryRecord*>& records) override;
  std::vector<nn::Tensor> Parameters() const override;

  std::unique_ptr<NeuralCostModel> CloneReplica() const override;

 private:
  nn::Tensor Forward(const std::vector<featurize::MscnSets>& batch);

  /// The batch's Huber loss as a graph node.
  nn::Tensor LossGraph(const std::vector<const QueryRecord*>& batch);

  /// Encodes one set type across the batch and mean-pools per query.
  nn::Tensor PoolSet(const std::vector<featurize::MscnSets>& batch,
                     const std::vector<std::vector<float>> featurize::MscnSets::*member,
                     size_t element_dim, const nn::Mlp& encoder);

  Options options_;
  featurize::MscnFeaturizer featurizer_;
  nn::Mlp table_encoder_;
  nn::Mlp join_encoder_;
  nn::Mlp predicate_encoder_;
  nn::Mlp output_;
  featurize::TargetNorm target_norm_;
};

}  // namespace zerodb::models

#endif  // ZERODB_MODELS_MSCN_MODEL_H_
