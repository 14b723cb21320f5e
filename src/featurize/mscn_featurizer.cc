#include "featurize/mscn_featurizer.h"

#include <algorithm>

#include "common/check.h"

namespace zerodb::featurize {

namespace {

size_t TableIndex(const storage::Database& db, const std::string& table) {
  for (size_t i = 0; i < db.tables().size(); ++i) {
    if (db.tables()[i].name() == table) {
      return std::min(i, MscnFeaturizer::kMaxTables - 1);
    }
  }
  return MscnFeaturizer::kMaxTables - 1;
}

size_t ColumnIndexCapped(size_t column) {
  return std::min(column, MscnFeaturizer::kMaxColumns - 1);
}

}  // namespace

MscnSets MscnFeaturizer::Featurize(const plan::QuerySpec& query,
                                   const datagen::DatabaseEnv& env) const {
  const storage::Database& db = *env.db;
  MscnSets sets;

  for (const std::string& table : query.tables) {
    std::vector<float> v(kTableDim, 0.0f);
    v[TableIndex(db, table)] = 1.0f;
    sets.tables.push_back(std::move(v));
  }

  for (const plan::JoinSpec& join : query.joins) {
    std::vector<float> v(kJoinDim, 0.0f);
    const storage::Table* left = db.FindTable(join.left_table);
    const storage::Table* right = db.FindTable(join.right_table);
    ZDB_CHECK(left != nullptr && right != nullptr);
    size_t offset = 0;
    v[offset + TableIndex(db, join.left_table)] = 1.0f;
    offset += kMaxTables;
    v[offset + ColumnIndexCapped(*left->schema().FindColumn(join.left_column))] =
        1.0f;
    offset += kMaxColumns;
    v[offset + TableIndex(db, join.right_table)] = 1.0f;
    offset += kMaxTables;
    v[offset +
      ColumnIndexCapped(*right->schema().FindColumn(join.right_column))] = 1.0f;
    sets.joins.push_back(std::move(v));
  }

  for (const plan::FilterSpec& filter : query.filters) {
    std::vector<const plan::Predicate*> leaves;
    filter.predicate.CollectLeaves(&leaves);
    for (const plan::Predicate* leaf : leaves) {
      std::vector<float> v(kPredicateDim, 0.0f);
      size_t offset = 0;
      v[offset + TableIndex(db, filter.table)] = 1.0f;
      offset += kMaxTables;
      v[offset + ColumnIndexCapped(leaf->slot())] = 1.0f;
      offset += kMaxColumns;
      v[offset + static_cast<size_t>(leaf->op())] = 1.0f;
      offset += plan::kNumCompareOps;
      const stats::ColumnStats& column_stats =
          env.stats.GetColumn(filter.table, leaf->slot());
      double range = column_stats.max - column_stats.min;
      double normalized =
          range > 0 ? (leaf->literal() - column_stats.min) / range : 0.5;
      v[offset] = static_cast<float>(std::clamp(normalized, 0.0, 1.0));
      sets.predicates.push_back(std::move(v));
    }
  }

  return sets;
}

}  // namespace zerodb::featurize
