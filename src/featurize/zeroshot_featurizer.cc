#include "featurize/zeroshot_featurizer.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "common/math_util.h"

namespace zerodb::featurize {

namespace {

using plan::PhysicalNode;
using plan::PhysicalOpType;

float Log1pF(double x) { return static_cast<float>(Log1pSafe(x)); }

// Named unit -> feature-space conversions: counts and widths enter the
// feature vector only log1p-transformed, so the raw magnitudes never mix.
float Log1pF(Rows rows) { return Log1pF(rows.value()); }
float Log1pF(Bytes bytes) { return Log1pF(bytes.value()); }

// Summarizes predicate structure into (leaves, eq leaves, range leaves,
// depth, has_or).
struct PredicateSummary {
  size_t leaves = 0;
  size_t eq_leaves = 0;
  size_t range_leaves = 0;
  size_t depth = 0;
  bool has_or = false;
};

bool HasOr(const plan::Predicate& predicate) {
  if (predicate.kind() == plan::Predicate::Kind::kOr) return true;
  for (const plan::Predicate& child : predicate.children()) {
    if (HasOr(child)) return true;
  }
  return false;
}

void Summarize(const plan::Predicate& predicate, PredicateSummary* out) {
  out->leaves = predicate.NumComparisons();
  out->depth = predicate.Depth();
  std::vector<const plan::Predicate*> leaves;
  predicate.CollectLeaves(&leaves);
  for (const plan::Predicate* leaf : leaves) {
    if (leaf->op() == plan::CompareOp::kEq ||
        leaf->op() == plan::CompareOp::kNe) {
      ++out->eq_leaves;
    } else {
      ++out->range_leaves;
    }
  }
  out->has_or = HasOr(predicate);
}

int64_t RealOrEstimatedIndexHeight(const datagen::DatabaseEnv& env,
                                   const std::string& table,
                                   size_t column_index) {
  const storage::OrderedIndex* index = env.db->FindIndex(table, column_index);
  if (index != nullptr) return index->EstimatedHeight();
  // Hypothetical index: estimate from the table size (what-if mode).
  double rows = std::max<double>(
      2.0, static_cast<double>(env.stats.GetTable(table).num_rows));
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(std::log(rows) / std::log(256.0))));
}

// Debug-only sweep: a NaN/Inf in any node feature would silently poison the
// whole message-passing pass downstream; catch it where it is produced.
bool FeaturesAreFinite(std::span<const float> features) {
  for (float value : features) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

}  // namespace

Rows ZeroShotFeaturizer::NodeCardinality(const PhysicalNode& node) const {
  if (mode() == CardinalityMode::kEstimated) return Rows(node.est_cardinality);
  ZDB_CHECK_GE(node.true_cardinality, 0.0)
      << "exact-cardinality featurization requires an executed plan";
  return Rows(node.true_cardinality);
}

void ZeroShotFeaturizer::FillRow(const PhysicalNode& node,
                                 const datagen::DatabaseEnv& env,
                                 const plan::PlanSlots& slots, float* f) const {
  const Rows out_card = NodeCardinality(node);
  f[0] = Log1pF(out_card);
  // Output width of a node, as a feature-space byte count.
  auto width = [&](const PhysicalNode& n) {
    return Log1pF(Bytes(static_cast<double>(slots.WidthBytes(n))));
  };
  f[4] = width(node);
  f[19] = 1.0f;

  // Inputs.
  Rows in_left;
  Rows in_right;
  switch (node.type) {
    case PhysicalOpType::kSeqScan:
    case PhysicalOpType::kIndexScan: {
      const stats::TableStats& table_stats = env.stats.GetTable(node.table_name);
      in_left = Rows(static_cast<double>(table_stats.num_rows));
      f[3] = Log1pF(static_cast<double>(table_stats.num_pages));
      f[5] = Log1pF(Bytes(static_cast<double>(table_stats.row_width_bytes)));
      break;
    }
    case PhysicalOpType::kIndexNLJoin: {
      in_left = NodeCardinality(*node.children[0]);
      const stats::TableStats& inner_stats = env.stats.GetTable(node.table_name);
      in_right = Rows(static_cast<double>(inner_stats.num_rows));
      f[3] = Log1pF(static_cast<double>(inner_stats.num_pages));
      f[5] = width(*node.children[0]);
      f[6] = Log1pF(Bytes(static_cast<double>(inner_stats.row_width_bytes)));
      break;
    }
    case PhysicalOpType::kHashJoin:
    case PhysicalOpType::kNestedLoopJoin:
      in_left = NodeCardinality(*node.children[0]);
      in_right = NodeCardinality(*node.children[1]);
      f[5] = width(*node.children[0]);
      f[6] = width(*node.children[1]);
      break;
    case PhysicalOpType::kFilter:
    case PhysicalOpType::kSort:
    case PhysicalOpType::kHashAggregate:
    case PhysicalOpType::kSimpleAggregate:
      in_left = NodeCardinality(*node.children[0]);
      f[5] = width(*node.children[0]);
      break;
  }
  f[1] = Log1pF(in_left);
  f[2] = Log1pF(in_right);
  f[7] = static_cast<float>(Selectivity::FromRows(out_card, in_left).value());

  // Predicate structure.
  if (node.predicate.has_value()) {
    PredicateSummary summary;
    Summarize(*node.predicate, &summary);
    f[8] = Log1pF(static_cast<double>(summary.leaves));
    f[9] = Log1pF(static_cast<double>(summary.eq_leaves));
    f[10] = Log1pF(static_cast<double>(summary.range_leaves));
    f[11] = static_cast<float>(summary.depth);
    f[12] = summary.has_or ? 1.0f : 0.0f;
  }

  // Index features.
  if (node.type == PhysicalOpType::kIndexScan ||
      node.type == PhysicalOpType::kIndexNLJoin) {
    f[13] = Log1pF(static_cast<double>(
        RealOrEstimatedIndexHeight(env, node.table_name, node.index_column)));
    if (node.type == PhysicalOpType::kIndexScan) {
      bool is_range = !(node.range_lo.has_value() && node.range_hi.has_value() &&
                        *node.range_lo == *node.range_hi);
      f[14] = is_range ? 1.0f : 0.0f;
    }
  }

  // Aggregation / sort shape.
  f[15] = Log1pF(static_cast<double>(node.aggregates.size()));
  f[16] = Log1pF(static_cast<double>(node.group_by_slots.size()));
  if (node.type == PhysicalOpType::kHashAggregate ||
      node.type == PhysicalOpType::kSimpleAggregate) {
    f[17] = Log1pF(out_card);
  }
  f[18] = Log1pF(static_cast<double>(node.sort_slots.size()));

  ZDB_DCHECK(FeaturesAreFinite({f, kFeatureDim}));
}

}  // namespace zerodb::featurize
