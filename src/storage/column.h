#ifndef ZERODB_STORAGE_COLUMN_H_
#define ZERODB_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/types.h"
#include "common/status.h"
#include "storage/value.h"

namespace zerodb::storage {

/// A typed column vector. Int64 and dictionary-encoded string columns share
/// the int64 buffer (string columns store dictionary codes); double columns
/// use the double buffer. Columnar layout keeps the executor's scans,
/// filters and hash joins cache-friendly.
class Column {
 public:
  Column() = default;
  explicit Column(catalog::DataType type);

  catalog::DataType type() const { return type_; }
  size_t size() const;

  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  /// Appends a string, interning it in the dictionary. O(dictionary) per
  /// call; bulk loaders should SetDictionary + AppendStringCode instead.
  void AppendString(const std::string& v);

  /// Installs the full dictionary up front (bulk-load path).
  void SetDictionary(std::vector<std::string> dictionary);

  /// Appends a pre-encoded dictionary code; requires SetDictionary first.
  void AppendStringCode(int64_t code);

  /// Raw buffers for the executor's tight loops.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }

  /// Value at row (strings decoded through the dictionary).
  Value GetValue(size_t row) const;

  /// Numeric view of a row: int64 / dictionary code / double as double.
  double GetNumeric(size_t row) const;

  /// Dictionary code for the given string; error if not present. Used to
  /// translate string literals in predicates into comparable codes.
  StatusOr<int64_t> LookupCode(const std::string& v) const;

  /// Dictionary string for a code (inverse of LookupCode).
  StatusOr<std::string> DictionaryEntry(int64_t code) const;

  /// Number of distinct dictionary entries (string columns only).
  size_t dictionary_size() const { return dictionary_.size(); }

  /// Average payload width in bytes (strings: mean dictionary entry length
  /// plus one). O(1): plan featurization and validation read it per slot.
  int64_t AvgWidthBytes() const;

  void Reserve(size_t rows);

 private:
  catalog::DataType type_ = catalog::DataType::kInt64;
  std::vector<int64_t> ints_;      // int64 data or string dictionary codes
  std::vector<double> doubles_;    // double data
  std::vector<std::string> dictionary_;  // code -> string
  size_t dictionary_bytes_ = 0;  // summed entry sizes: AvgWidthBytes in O(1)
};

}  // namespace zerodb::storage

#endif  // ZERODB_STORAGE_COLUMN_H_
