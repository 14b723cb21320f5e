#include "storage/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace zerodb::storage {

namespace {

Status ParseRow(const std::string& line, size_t line_number,
                const catalog::TableSchema& schema, Table* table) {
  std::vector<std::string> cells = Split(line, ',');
  if (cells.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("line %zu: expected %zu cells, found %zu", line_number,
                  schema.num_columns(), cells.size()));
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    const catalog::ColumnSchema& column_schema = schema.column(c);
    Column& column = table->column(c);
    const std::string& cell = cells[c];
    switch (column_schema.type) {
      case catalog::DataType::kInt64: {
        char* end = nullptr;
        errno = 0;
        long long value = std::strtoll(cell.c_str(), &end, 10);
        if (end == cell.c_str() || *end != '\0' || errno == ERANGE) {
          return Status::InvalidArgument(
              StrFormat("line %zu: bad int64 '%s'", line_number,
                        cell.c_str()));
        }
        column.AppendInt64(static_cast<int64_t>(value));
        break;
      }
      case catalog::DataType::kDouble: {
        char* end = nullptr;
        double value = std::strtod(cell.c_str(), &end);
        // NaN and inf would reach the std::sort calls in stats/ and
        // storage/index.cc, where NaN breaks strict weak ordering.
        if (end == cell.c_str() || *end != '\0' || !std::isfinite(value)) {
          return Status::InvalidArgument(
              StrFormat("line %zu: bad double '%s'", line_number,
                        cell.c_str()));
        }
        column.AppendDouble(value);
        break;
      }
      case catalog::DataType::kString:
        column.AppendString(cell);
        break;
    }
  }
  return Status::OK();
}

StatusOr<Table> LoadCsvFromStream(std::istream& in,
                                  const catalog::TableSchema& schema) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV input");
  }
  // Validate the header against the schema.
  std::vector<std::string> header = Split(line, ',');
  if (header.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("header has %zu columns, schema expects %zu", header.size(),
                  schema.num_columns()));
  }
  for (size_t c = 0; c < header.size(); ++c) {
    if (header[c] != schema.column(c).name) {
      return Status::InvalidArgument(
          StrFormat("header column %zu is '%s', schema expects '%s'", c,
                    header[c].c_str(), schema.column(c).name.c_str()));
    }
  }

  Table table(schema);
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    ZDB_RETURN_NOT_OK(ParseRow(line, line_number, schema, &table));
  }
  ZDB_RETURN_NOT_OK(table.Validate());
  return table;
}

}  // namespace

StatusOr<Table> LoadCsv(const std::string& path,
                        const catalog::TableSchema& schema) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  return LoadCsvFromStream(in, schema);
}

StatusOr<Table> LoadCsvFromString(const std::string& content,
                                  const catalog::TableSchema& schema) {
  std::istringstream in(content);
  return LoadCsvFromStream(in, schema);
}

Status SaveCsv(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  std::vector<std::string> names;
  for (const catalog::ColumnSchema& column : table.schema().columns()) {
    names.push_back(column.name);
  }
  out << Join(names, ",") << "\n";
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << ",";
      Value value = table.column(c).GetValue(row);
      if (value.is_string()) {
        out << value.AsString();
      } else if (value.is_double()) {
        out << StrFormat("%.17g", value.AsDouble());
      } else {
        out << value.AsInt64();
      }
    }
    out << "\n";
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace zerodb::storage
