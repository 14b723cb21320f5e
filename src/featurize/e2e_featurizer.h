#ifndef ZERODB_FEATURIZE_E2E_FEATURIZER_H_
#define ZERODB_FEATURIZE_E2E_FEATURIZER_H_

#include "datagen/corpus.h"
#include "featurize/plan_graph.h"
#include "plan/physical.h"

namespace zerodb::featurize {

/// The workload-driven baseline featurization in the style of E2E
/// [Sun & Li 2019], Figure 3b of the paper: a tree over plan operators
/// whose node features are *database-dependent* — one-hot table and column
/// identities plus normalized predicate literals. A model trained on these
/// features can be accurate on the database it was trained on (identity
/// implies size/distribution) but is meaningless on any other database,
/// which is precisely the contrast the paper draws.
class E2EFeaturizer : public TreeFeaturizer {
 public:
  static constexpr size_t kMaxTables = 16;   ///< table one-hot width
  static constexpr size_t kMaxColumns = 12;  ///< column one-hot width
  /// op one-hot + table one-hot + predicate column bag + comparison-op
  /// counts + literal stats (3) + est cardinality + output width +
  /// #aggregates + #group-by.
  static constexpr size_t kFeatureDim = plan::kNumPhysicalOpTypes +
                                        kMaxTables + kMaxColumns +
                                        plan::kNumCompareOps + 3 + 2 + 2;

  explicit E2EFeaturizer(CardinalityMode mode)
      : TreeFeaturizer(mode, kFeatureDim) {}

 private:
  void FillRow(const plan::PhysicalNode& node, const datagen::DatabaseEnv& env,
               const plan::PlanSlots& slots, float* f) const override;
};

}  // namespace zerodb::featurize

#endif  // ZERODB_FEATURIZE_E2E_FEATURIZER_H_
