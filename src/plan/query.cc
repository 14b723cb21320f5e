#include "plan/query.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace zerodb::plan {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  ZDB_CHECK(false);
  return "?";
}

std::string QuerySpec::ToSql(const storage::Database& db) const {
  std::vector<std::string> select_items;
  for (const AggregateSpec& agg : aggregates) {
    if (agg.table.empty()) {
      select_items.push_back(std::string(AggFuncName(agg.func)) + "(*)");
    } else {
      select_items.push_back(StrFormat("%s(%s.%s)", AggFuncName(agg.func),
                                       agg.table.c_str(), agg.column.c_str()));
    }
  }
  for (const GroupBySpec& g : group_by) {
    select_items.insert(select_items.begin(), g.table + "." + g.column);
  }
  if (select_items.empty()) select_items.push_back("*");

  std::string sql = "SELECT " + Join(select_items, ", ") + " FROM " +
                    Join(tables, ", ");

  std::vector<std::string> where_parts;
  for (const JoinSpec& join : joins) {
    where_parts.push_back(StrFormat("%s.%s = %s.%s", join.left_table.c_str(),
                                    join.left_column.c_str(),
                                    join.right_table.c_str(),
                                    join.right_column.c_str()));
  }
  for (const FilterSpec& filter : filters) {
    const storage::Table* table = db.FindTable(filter.table);
    // Render literals losslessly, and dictionary codes as quoted strings,
    // so the output parses back through sql::ParseQuery unchanged.
    auto renderer = [&](size_t slot, CompareOp op, double literal) {
      std::string name = StrFormat("%s.$%zu", filter.table.c_str(), slot);
      std::string value = StrFormat("%.17g", literal);
      if (table != nullptr && slot < table->num_columns()) {
        name = filter.table + "." + table->schema().column(slot).name;
        const storage::Column& column = table->column(slot);
        if (column.type() == catalog::DataType::kString) {
          auto entry = column.DictionaryEntry(static_cast<int64_t>(literal));
          value = entry.ok() ? "'" + *entry + "'" : "'<unknown>'";
        }
      }
      return StrFormat("%s %s %s", name.c_str(), CompareOpName(op),
                       value.c_str());
    };
    where_parts.push_back(filter.predicate.ToStringWithRenderer(renderer));
  }
  if (!where_parts.empty()) {
    sql += " WHERE " + Join(where_parts, " AND ");
  }
  if (!group_by.empty()) {
    std::vector<std::string> group_items;
    for (const GroupBySpec& g : group_by) {
      group_items.push_back(g.table + "." + g.column);
    }
    sql += " GROUP BY " + Join(group_items, ", ");
  }
  return sql + ";";
}

Status QuerySpec::Validate(const storage::Database& db) const {
  if (tables.empty()) return Status::InvalidArgument("query has no tables");
  for (auto it = tables.begin(); it != tables.end(); ++it) {
    if (std::find(tables.begin(), it, *it) != it) {
      return Status::InvalidArgument("table appears more than once in FROM: " +
                                     *it);
    }
  }
  for (const std::string& table_name : tables) {
    if (db.FindTable(table_name) == nullptr) {
      return Status::NotFound("table: " + table_name);
    }
  }
  auto has_table = [this](const std::string& name) {
    return std::find(tables.begin(), tables.end(), name) != tables.end();
  };
  auto check_column = [&db](const std::string& table_name,
                            const std::string& column_name) -> Status {
    const storage::Table* table = db.FindTable(table_name);
    if (table == nullptr) return Status::NotFound("table: " + table_name);
    if (!table->schema().FindColumn(column_name).has_value()) {
      return Status::NotFound("column: " + table_name + "." + column_name);
    }
    return Status::OK();
  };

  for (const JoinSpec& join : joins) {
    if (!has_table(join.left_table) || !has_table(join.right_table)) {
      return Status::InvalidArgument("join references table outside FROM");
    }
    ZDB_RETURN_NOT_OK(check_column(join.left_table, join.left_column));
    ZDB_RETURN_NOT_OK(check_column(join.right_table, join.right_column));
  }
  for (const FilterSpec& filter : filters) {
    if (!has_table(filter.table)) {
      return Status::InvalidArgument("filter references table outside FROM");
    }
    const storage::Table* table = db.FindTable(filter.table);
    for (size_t slot : filter.predicate.ReferencedSlots()) {
      if (slot >= table->num_columns()) {
        return Status::OutOfRange("filter slot out of range");
      }
    }
  }
  for (const AggregateSpec& agg : aggregates) {
    if (agg.table.empty()) continue;  // COUNT(*)
    if (!has_table(agg.table)) {
      return Status::InvalidArgument("aggregate references table outside FROM");
    }
    ZDB_RETURN_NOT_OK(check_column(agg.table, agg.column));
  }
  for (const GroupBySpec& g : group_by) {
    if (!has_table(g.table)) {
      return Status::InvalidArgument("group-by references table outside FROM");
    }
    ZDB_RETURN_NOT_OK(check_column(g.table, g.column));
  }

  // Connectivity: every table must be reachable through join edges (single
  // table queries trivially pass).
  if (tables.size() > 1) {
    std::vector<std::string> reachable = {tables[0]};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const JoinSpec& join : joins) {
        bool left_in = std::find(reachable.begin(), reachable.end(),
                                 join.left_table) != reachable.end();
        bool right_in = std::find(reachable.begin(), reachable.end(),
                                  join.right_table) != reachable.end();
        if (left_in != right_in) {
          reachable.push_back(left_in ? join.right_table : join.left_table);
          grew = true;
        }
      }
    }
    if (reachable.size() != tables.size()) {
      return Status::InvalidArgument("join graph is disconnected");
    }
  }
  return Status::OK();
}

}  // namespace zerodb::plan
