#include "featurize/e2e_featurizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace zerodb::featurize {

namespace {

using plan::PhysicalNode;
using plan::PhysicalOpType;

size_t TableOneHotIndex(const storage::Database& db,
                        const std::string& table_name) {
  for (size_t i = 0; i < db.tables().size(); ++i) {
    if (db.tables()[i].name() == table_name) {
      return std::min(i, E2EFeaturizer::kMaxTables - 1);
    }
  }
  return E2EFeaturizer::kMaxTables - 1;
}

}  // namespace

void E2EFeaturizer::FillRow(const PhysicalNode& node,
                            const datagen::DatabaseEnv& env,
                            const plan::PlanSlots& slots, float* f) const {
  size_t offset = 0;

  // Operator one-hot.
  f[offset + static_cast<size_t>(node.type)] = 1.0f;
  offset += plan::kNumPhysicalOpTypes;

  // Table one-hot (database-dependent!).
  const bool has_table = node.type == PhysicalOpType::kSeqScan ||
                         node.type == PhysicalOpType::kIndexScan ||
                         node.type == PhysicalOpType::kIndexNLJoin;
  if (has_table) {
    f[offset + TableOneHotIndex(*env.db, node.table_name)] = 1.0f;
  }
  offset += kMaxTables;

  // Predicate encoding: a bag of column one-hots, comparison-op counts, and
  // normalized literal statistics (the values the zero-shot featurizer
  // deliberately excludes).
  if (node.predicate.has_value() && has_table) {
    std::vector<const plan::Predicate*> leaves;
    node.predicate->CollectLeaves(&leaves);
    std::vector<double> normalized_literals;
    for (const plan::Predicate* leaf : leaves) {
      size_t column = std::min(leaf->slot(), kMaxColumns - 1);
      f[offset + column] += 1.0f;
      f[offset + kMaxColumns + static_cast<size_t>(leaf->op())] += 1.0f;
      const stats::ColumnStats& column_stats =
          env.stats.GetColumn(node.table_name, leaf->slot());
      double range = column_stats.max - column_stats.min;
      double normalized = range > 0
                              ? (leaf->literal() - column_stats.min) / range
                              : 0.5;
      normalized_literals.push_back(std::clamp(normalized, 0.0, 1.0));
    }
    if (!normalized_literals.empty()) {
      double min_v = *std::min_element(normalized_literals.begin(),
                                       normalized_literals.end());
      double max_v = *std::max_element(normalized_literals.begin(),
                                       normalized_literals.end());
      const size_t stats = offset + kMaxColumns + plan::kNumCompareOps;
      f[stats + 0] = static_cast<float>(Mean(normalized_literals));
      f[stats + 1] = static_cast<float>(min_v);
      f[stats + 2] = static_cast<float>(max_v);
    }
  }
  offset += kMaxColumns + plan::kNumCompareOps + 3;

  // Cardinality / width (E2E also consumes estimates).
  double card = mode() == CardinalityMode::kEstimated ? node.est_cardinality
                                                      : node.true_cardinality;
  if (mode() == CardinalityMode::kExact) ZDB_CHECK_GE(card, 0.0);
  f[offset++] = static_cast<float>(Log1pSafe(card));
  f[offset++] = static_cast<float>(
      Log1pSafe(static_cast<double>(slots.WidthBytes(node))));

  f[offset++] = static_cast<float>(node.aggregates.size());
  f[offset++] = static_cast<float>(node.group_by_slots.size());
  ZDB_CHECK_EQ(offset, kFeatureDim);
}

}  // namespace zerodb::featurize
