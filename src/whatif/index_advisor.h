#ifndef ZERODB_WHATIF_INDEX_ADVISOR_H_
#define ZERODB_WHATIF_INDEX_ADVISOR_H_

#include <string>
#include <vector>

#include "datagen/corpus.h"
#include "plan/query.h"
#include "zeroshot/estimator.h"

namespace zerodb::whatif {

/// A candidate (or chosen) index.
struct IndexCandidate {
  std::string table;
  std::string column;
  size_t column_index = 0;
};

struct AdvisorResult {
  std::vector<IndexCandidate> chosen;
  Millis baseline_total_ms;   ///< predicted workload cost, no new indexes
  Millis final_total_ms;      ///< predicted cost with chosen indexes
  /// True when the estimator's quality monitor reported prediction drift at
  /// recommendation time: the search then required degraded_min_improvement
  /// and these recommendations deserve extra scrutiny.
  bool quality_degraded = false;
};

/// The paper's Section 4.1 application: physical design tuning driven by a
/// zero-shot cost model in What-If mode. Candidate indexes are evaluated
/// *hypothetically* — the planner plans as if the index existed and the
/// zero-shot model predicts the runtime — so no index is built and no query
/// is executed on the target database during the search.
struct IndexAdvisorOptions {
  size_t max_indexes = 3;
  /// Keep a candidate only if it improves predicted workload time by at
  /// least this factor (1.0 = any improvement).
  double min_improvement = 1.005;
  /// Stricter improvement bar applied while the estimator's online quality
  /// monitor reports drift: when the model's live q-error has degraded, tiny
  /// predicted wins are likely noise, so only clear wins survive.
  double degraded_min_improvement = 1.05;
};

class IndexAdvisor {
 public:
  using Options = IndexAdvisorOptions;

  explicit IndexAdvisor(zeroshot::ZeroShotEstimator* estimator,
                        Options options = Options());

  /// Candidate columns: every attribute column referenced by a predicate
  /// plus every join column of the workload's valid queries
  /// (QuerySpec::Validate); the planner rejects the others outright.
  std::vector<IndexCandidate> EnumerateCandidates(
      const datagen::DatabaseEnv& env,
      const std::vector<plan::QuerySpec>& workload) const;

  /// Greedy selection: repeatedly add the hypothetical index with the best
  /// predicted improvement. Within one call each query is planned and priced
  /// once per subset of the trial indexes that can change its plan
  /// (optimizer::IndexMayChangePlan); invalid queries contribute nothing.
  AdvisorResult Recommend(const datagen::DatabaseEnv& env,
                          const std::vector<plan::QuerySpec>& workload);

 private:
  zeroshot::ZeroShotEstimator* estimator_;
  Options options_;
};

}  // namespace zerodb::whatif

#endif  // ZERODB_WHATIF_INDEX_ADVISOR_H_
