#ifndef ZERODB_MODELS_E2E_MODEL_H_
#define ZERODB_MODELS_E2E_MODEL_H_

#include <memory>
#include <string>

#include "featurize/e2e_featurizer.h"
#include "models/tree_model.h"

namespace zerodb::models {

/// The workload-driven E2E baseline [Sun & Li 2019]: the same tree
/// message-passing trunk but a single shared node encoder over
/// database-dependent one-hot features. Trained per database; cannot
/// transfer.
class E2ECostModel : public TreeMessagePassingModel {
 public:
  struct Options {
    size_t hidden_dim = 64;
    uint64_t init_seed = 2;
  };

  explicit E2ECostModel(const Options& options);

  std::string Name() const override { return "E2E"; }

  std::unique_ptr<NeuralCostModel> CloneReplica() const override;

 protected:
  const featurize::TreeFeaturizer& featurizer() const override {
    return featurizer_;
  }
  size_t EncoderIdFor(size_t) const override { return 0; }

 private:
  static TreeModelConfig MakeConfig(const Options& options);

  Options options_;
  featurize::E2EFeaturizer featurizer_;
};

}  // namespace zerodb::models

#endif  // ZERODB_MODELS_E2E_MODEL_H_
