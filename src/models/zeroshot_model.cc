#include "models/zeroshot_model.h"

#include "plan/physical.h"

namespace zerodb::models {

TreeModelConfig ZeroShotCostModel::MakeConfig(const Options& options) {
  TreeModelConfig config;
  config.feature_dim = featurize::ZeroShotFeaturizer::kFeatureDim;
  config.num_encoders = plan::kNumPhysicalOpTypes;
  config.hidden_dim = options.hidden_dim;
  config.init_seed = options.init_seed;
  return config;
}

ZeroShotCostModel::ZeroShotCostModel(const Options& options)
    : TreeMessagePassingModel(MakeConfig(options)),
      options_(options),
      featurizer_(options.cardinality_mode) {}

std::unique_ptr<NeuralCostModel> ZeroShotCostModel::CloneReplica() const {
  auto replica = std::make_unique<ZeroShotCostModel>(options_);
  replica->CopyTreeStateFrom(*this);
  return replica;
}

std::string ZeroShotCostModel::Name() const {
  return std::string("zero-shot (") +
         featurize::CardinalityModeName(featurizer_.mode()) + " card.)";
}

}  // namespace zerodb::models
