#ifndef ZERODB_FEATURIZE_ZEROSHOT_FEATURIZER_H_
#define ZERODB_FEATURIZE_ZEROSHOT_FEATURIZER_H_

#include "common/units.h"
#include "datagen/corpus.h"
#include "featurize/plan_graph.h"
#include "plan/physical.h"

namespace zerodb::featurize {

/// The paper's core contribution: a *database-independent* featurization of
/// physical plans (Figure 3c). Every feature can be derived from any
/// database — page counts, tuple widths, cardinalities, predicate
/// *structure* (never literal values: selectivity information enters only
/// through the cardinality inputs, the "separation of concerns"). No table
/// names, no column identities, no one-hot encodings — which is exactly why
/// a model trained on these features transfers to unseen databases.
class ZeroShotFeaturizer : public TreeFeaturizer {
 public:
  /// Per-node feature vector layout (all counts log1p-transformed):
  ///  0 output cardinality        10 #range-comparison leaves
  ///  1 input cardinality (left)  11 predicate tree depth
  ///  2 input cardinality (right) 12 has-OR flag
  ///  3 table pages (scans)       13 index height
  ///  4 output tuple width        14 index range-scan flag
  ///  5 input width (left)        15 #aggregate functions
  ///  6 input width (right)       16 #group-by columns
  ///  7 output/input selectivity  17 group output cardinality
  ///  8 #predicate leaves         18 #sort columns
  ///  9 #equality leaves          19 bias (1.0)
  static constexpr size_t kFeatureDim = 20;

  explicit ZeroShotFeaturizer(CardinalityMode mode)
      : TreeFeaturizer(mode, kFeatureDim) {}

 private:
  void FillRow(const plan::PhysicalNode& node, const datagen::DatabaseEnv& env,
               const plan::PlanSlots& slots, float* f) const override;

  Rows NodeCardinality(const plan::PhysicalNode& node) const;
};

}  // namespace zerodb::featurize

#endif  // ZERODB_FEATURIZE_ZEROSHOT_FEATURIZER_H_
