#ifndef ZERODB_FEATURIZE_MSCN_FEATURIZER_H_
#define ZERODB_FEATURIZE_MSCN_FEATURIZER_H_

#include <vector>

#include "datagen/corpus.h"
#include "plan/query.h"

namespace zerodb::featurize {

/// The three feature sets of MSCN [Kipf et al. 2019]: tables, joins and
/// predicates, each one-hot encoded. Plan-agnostic (MSCN looks at the query,
/// not the physical plan) and fully database-dependent — both reasons the
/// paper reports it as the weakest cost baseline.
struct MscnSets {
  std::vector<std::vector<float>> tables;
  std::vector<std::vector<float>> joins;
  std::vector<std::vector<float>> predicates;
};

class MscnFeaturizer {
 public:
  static constexpr size_t kMaxTables = 16;
  static constexpr size_t kMaxColumns = 12;
  static constexpr size_t kTableDim = kMaxTables;
  static constexpr size_t kJoinDim = 2 * (kMaxTables + kMaxColumns);
  static constexpr size_t kPredicateDim =
      kMaxTables + kMaxColumns + plan::kNumCompareOps + 1;

  MscnSets Featurize(const plan::QuerySpec& query,
                     const datagen::DatabaseEnv& env) const;
};

}  // namespace zerodb::featurize

#endif  // ZERODB_FEATURIZE_MSCN_FEATURIZER_H_
