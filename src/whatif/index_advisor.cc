#include "whatif/index_advisor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/trace_event.h"

namespace zerodb::whatif {

namespace {

// The queries the planner can accept. Planner::Plan rejects the others before
// it consults any index, so they never contribute to a predicted total.
std::vector<const plan::QuerySpec*> ValidQueries(
    const storage::Database& db, const std::vector<plan::QuerySpec>& workload) {
  std::vector<const plan::QuerySpec*> valid;
  for (const plan::QuerySpec& query : workload) {
    if (query.Validate(db).ok()) valid.push_back(&query);
  }
  return valid;
}

std::vector<IndexCandidate> Candidates(
    const datagen::DatabaseEnv& env,
    const std::vector<const plan::QuerySpec*>& queries) {
  std::vector<IndexCandidate> candidates;
  auto add = [&](const std::string& table, size_t column_index) {
    const storage::Table* t = env.db->FindTable(table);
    const std::string& column = t->schema().column(column_index).name;
    for (const IndexCandidate& existing : candidates) {
      if (existing.table == table && existing.column_index == column_index) {
        return;
      }
    }
    // Skip columns that already have a real index.
    if (env.db->FindIndex(table, column_index) != nullptr) return;
    candidates.push_back(IndexCandidate{table, column, column_index});
  };

  // Validation guarantees every table, join column and filter slot below
  // exists.
  for (const plan::QuerySpec* query : queries) {
    for (const plan::FilterSpec& filter : query->filters) {
      for (size_t slot : filter.predicate.ReferencedSlots()) {
        add(filter.table, slot);
      }
    }
    for (const plan::JoinSpec& join : query->joins) {
      add(join.left_table, *env.db->FindTable(join.left_table)
                                ->schema()
                                .FindColumn(join.left_column));
      add(join.right_table, *env.db->FindTable(join.right_table)
                                 ->schema()
                                 .FindColumn(join.right_column));
    }
  }
  return candidates;
}

// Enumerates a workload's index candidates and prices sets of them (ordinals
// into that list) for one Recommend call; `env` and the queries must outlive
// it. A query's plan depends only on the trial indexes that
// optimizer::IndexMayChangePlan admits for it, so its prediction is memoized
// by (query, that relevant subset) and only memo misses are planned. The
// result is bit-identical to re-pricing the whole workload for every set: a
// skipped query would have produced a plan whose fingerprint the estimator
// has already priced, so every ForwardBatch call still sees the same cache
// misses in the same order, and totals are summed in workload order.
class WorkloadPricer {
 public:
  WorkloadPricer(zeroshot::ZeroShotEstimator* estimator,
                 const datagen::DatabaseEnv* env,
                 std::vector<const plan::QuerySpec*> queries)
      : estimator_(estimator),
        env_(env),
        queries_(std::move(queries)),
        candidates_(Candidates(*env, queries_)),
        relevant_(queries_.size() * candidates_.size()),
        memo_(queries_.size()) {
    for (size_t q = 0; q < queries_.size(); ++q) {
      for (size_t c = 0; c < candidates_.size(); ++c) {
        relevant_[q * candidates_.size() + c] = optimizer::IndexMayChangePlan(
            *env->db, *queries_[q], candidates_[c].table,
            candidates_[c].column_index);
      }
    }
  }

  const std::vector<IndexCandidate>& candidates() const { return candidates_; }

  /// Predicted total runtime of the workload under the candidate indexes
  /// `trial`; unplannable queries contribute nothing.
  Millis TotalMs(const std::vector<size_t>& trial) {
    ++trial_sets_;
    // slots[q] is query q's memo entry for this trial; a fresh entry is a
    // miss that the batch below fills.
    std::vector<std::optional<Millis>*> slots(queries_.size());
    std::vector<size_t> misses;
    for (size_t q = 0; q < queries_.size(); ++q) {
      std::vector<size_t> key;
      for (size_t c : trial) {
        if (relevant_[q * candidates_.size() + c]) key.push_back(c);
      }
      std::sort(key.begin(), key.end());
      auto [entry, inserted] = memo_[q].try_emplace(std::move(key));
      slots[q] = &entry->second;
      if (inserted) misses.push_back(q);
    }
    memo_hits_ += static_cast<int64_t>(queries_.size() - misses.size());
    queries_planned_ += static_cast<int64_t>(misses.size());
    if (!misses.empty()) {
      optimizer::PlannerOptions planner_options;
      for (size_t c : trial) {
        planner_options.hypothetical_indexes.push_back(
            optimizer::HypotheticalIndex{candidates_[c].table,
                                         candidates_[c].column_index});
      }
      std::vector<plan::QuerySpec> batch;
      batch.reserve(misses.size());
      for (size_t q : misses) batch.push_back(*queries_[q]);
      // One batched call plans the memo misses and prices, in a single
      // forward pass, the plans the fingerprint cache has not seen.
      std::vector<StatusOr<Millis>> estimates =
          estimator_->EstimateQueryBatchMs(*env_, batch, planner_options);
      for (size_t j = 0; j < misses.size(); ++j) {
        const StatusOr<Millis>& ms = estimates[j];
        if (ms.ok()) *slots[misses[j]] = *ms;
      }
    }
    Millis total;
    for (const std::optional<Millis>* ms : slots) {
      if (ms->has_value()) total += **ms;
    }
    return total;
  }

  int64_t trial_sets() const { return trial_sets_; }
  int64_t queries_planned() const { return queries_planned_; }
  int64_t memo_hits() const { return memo_hits_; }

 private:
  zeroshot::ZeroShotEstimator* estimator_;
  const datagen::DatabaseEnv* env_;
  const std::vector<const plan::QuerySpec*> queries_;
  const std::vector<IndexCandidate> candidates_;
  /// relevant_[q * |candidates| + c]: candidate c may change query q's plan.
  std::vector<bool> relevant_;
  /// Per query: relevant candidate subset (sorted) -> prediction, nullopt
  /// when the planner rejected the query.
  std::vector<std::map<std::vector<size_t>, std::optional<Millis>>> memo_;
  int64_t trial_sets_ = 0;
  int64_t queries_planned_ = 0;
  int64_t memo_hits_ = 0;
};

}  // namespace

IndexAdvisor::IndexAdvisor(zeroshot::ZeroShotEstimator* estimator,
                           Options options)
    : estimator_(estimator), options_(options) {
  ZDB_CHECK(estimator != nullptr);
}

std::vector<IndexCandidate> IndexAdvisor::EnumerateCandidates(
    const datagen::DatabaseEnv& env,
    const std::vector<plan::QuerySpec>& workload) const {
  return Candidates(env, ValidQueries(*env.db, workload));
}

AdvisorResult IndexAdvisor::Recommend(
    const datagen::DatabaseEnv& env,
    const std::vector<plan::QuerySpec>& workload) {
  obs::TimelineScope scope("whatif.recommend", "whatif");
  AdvisorResult result;
  const obs::PredictionQualityMonitor* quality = estimator_->quality_monitor();
  result.quality_degraded = quality != nullptr && quality->drifting();
  const double min_improvement = result.quality_degraded
                                     ? options_.degraded_min_improvement
                                     : options_.min_improvement;
  if (result.quality_degraded) {
    ZDB_LOG(Warning) << "advisor: estimator prediction quality is drifting "
                        "(ewma q-error "
                     << quality->EwmaQError() << " vs reference "
                     << quality->ReferenceQError()
                     << "); requiring >= " << min_improvement
                     << "x predicted improvement per index";
  }
  WorkloadPricer pricer(estimator_, &env, ValidQueries(*env.db, workload));
  const std::vector<IndexCandidate>& candidates = pricer.candidates();
  result.baseline_total_ms = pricer.TotalMs({});
  Millis current = result.baseline_total_ms;

  std::vector<size_t> chosen;  // ordinals into candidates
  std::vector<size_t> remaining(candidates.size());
  for (size_t c = 0; c < remaining.size(); ++c) remaining[c] = c;
  while (chosen.size() < options_.max_indexes && !remaining.empty()) {
    Millis best_ms = current;
    size_t best_index = remaining.size();
    for (size_t r = 0; r < remaining.size(); ++r) {
      std::vector<size_t> trial = chosen;
      trial.push_back(remaining[r]);
      Millis ms = pricer.TotalMs(trial);
      if (ms < best_ms) {
        best_ms = ms;
        best_index = r;
      }
    }
    // ms / ms is the dimensionless improvement factor compared against the
    // (likewise dimensionless) min_improvement bar.
    if (best_index == remaining.size() ||
        current / std::max(best_ms, Millis(1e-9)) < min_improvement) {
      break;  // no candidate helps enough
    }
    chosen.push_back(remaining[best_index]);
    remaining.erase(remaining.begin() + static_cast<long>(best_index));
    current = best_ms;
    ZDB_LOG(Debug) << "advisor chose " << candidates[chosen.back()].table
                   << "." << candidates[chosen.back()].column << " -> "
                   << current.value() << "ms";
  }
  for (size_t c : chosen) result.chosen.push_back(candidates[c]);
  result.final_total_ms = current;
  scope.AddArg("candidates", static_cast<double>(candidates.size()));
  scope.AddArg("trial_sets", static_cast<double>(pricer.trial_sets()));
  scope.AddArg("queries_planned",
               static_cast<double>(pricer.queries_planned()));
  scope.AddArg("memo_hits", static_cast<double>(pricer.memo_hits()));
  return result;
}

}  // namespace zerodb::whatif
