#include "models/e2e_model.h"

namespace zerodb::models {

TreeModelConfig E2ECostModel::MakeConfig(const Options& options) {
  TreeModelConfig config;
  config.feature_dim = featurize::E2EFeaturizer::kFeatureDim;
  config.num_encoders = 1;
  config.hidden_dim = options.hidden_dim;
  config.init_seed = options.init_seed;
  return config;
}

E2ECostModel::E2ECostModel(const Options& options)
    : TreeMessagePassingModel(MakeConfig(options)),
      options_(options),
      featurizer_(featurize::CardinalityMode::kEstimated) {}

std::unique_ptr<NeuralCostModel> E2ECostModel::CloneReplica() const {
  auto replica = std::make_unique<E2ECostModel>(options_);
  replica->CopyTreeStateFrom(*this);
  return replica;
}

}  // namespace zerodb::models
