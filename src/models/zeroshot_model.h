#ifndef ZERODB_MODELS_ZEROSHOT_MODEL_H_
#define ZERODB_MODELS_ZEROSHOT_MODEL_H_

#include <memory>
#include <string>

#include "featurize/zeroshot_featurizer.h"
#include "models/tree_model.h"

namespace zerodb::models {

/// The paper's zero-shot cost model: database-independent featurization
/// plus one encoder MLP per physical operator type, trained across many
/// databases, transferable to unseen ones.
class ZeroShotCostModel : public TreeMessagePassingModel {
 public:
  struct Options {
    featurize::CardinalityMode cardinality_mode =
        featurize::CardinalityMode::kEstimated;
    size_t hidden_dim = 64;
    uint64_t init_seed = 1;
  };

  explicit ZeroShotCostModel(const Options& options);

  std::string Name() const override;

  std::unique_ptr<NeuralCostModel> CloneReplica() const override;

  featurize::CardinalityMode cardinality_mode() const {
    return featurizer_.mode();
  }

 protected:
  const featurize::TreeFeaturizer& featurizer() const override {
    return featurizer_;
  }
  size_t EncoderIdFor(size_t op_type) const override { return op_type; }

 private:
  static TreeModelConfig MakeConfig(const Options& options);

  Options options_;
  featurize::ZeroShotFeaturizer featurizer_;
};

}  // namespace zerodb::models

#endif  // ZERODB_MODELS_ZEROSHOT_MODEL_H_
