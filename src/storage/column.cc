#include "storage/column.h"

#include "common/check.h"

namespace zerodb::storage {

Column::Column(catalog::DataType type) : type_(type) {}

size_t Column::size() const {
  return type_ == catalog::DataType::kDouble ? doubles_.size() : ints_.size();
}

void Column::AppendInt64(int64_t v) {
  ZDB_CHECK(type_ == catalog::DataType::kInt64);
  ints_.push_back(v);
}

void Column::AppendDouble(double v) {
  ZDB_CHECK(type_ == catalog::DataType::kDouble);
  doubles_.push_back(v);
}

void Column::AppendString(const std::string& v) {
  ZDB_CHECK(type_ == catalog::DataType::kString);
  // Linear-probe intern: fine for the modest dictionary sizes the data
  // generator produces; data loading is not on the measured path.
  for (size_t code = 0; code < dictionary_.size(); ++code) {
    if (dictionary_[code] == v) {
      ints_.push_back(static_cast<int64_t>(code));
      return;
    }
  }
  dictionary_.push_back(v);
  dictionary_bytes_ += v.size();
  ints_.push_back(static_cast<int64_t>(dictionary_.size() - 1));
}

void Column::SetDictionary(std::vector<std::string> dictionary) {
  ZDB_CHECK(type_ == catalog::DataType::kString);
  ZDB_CHECK(ints_.empty()) << "SetDictionary after data was appended";
  dictionary_ = std::move(dictionary);
  dictionary_bytes_ = 0;
  for (const std::string& entry : dictionary_) {
    dictionary_bytes_ += entry.size();
  }
}

void Column::AppendStringCode(int64_t code) {
  ZDB_CHECK(type_ == catalog::DataType::kString);
  ZDB_CHECK_GE(code, 0);
  ZDB_CHECK_LT(static_cast<size_t>(code), dictionary_.size());
  ints_.push_back(code);
}

Value Column::GetValue(size_t row) const {
  ZDB_CHECK_LT(row, size());
  switch (type_) {
    case catalog::DataType::kInt64:
      return Value(ints_[row]);
    case catalog::DataType::kDouble:
      return Value(doubles_[row]);
    case catalog::DataType::kString: {
      int64_t code = ints_[row];
      ZDB_CHECK_LT(static_cast<size_t>(code), dictionary_.size());
      return Value(dictionary_[static_cast<size_t>(code)]);
    }
  }
  ZDB_CHECK(false);
  return Value();
}

double Column::GetNumeric(size_t row) const {
  ZDB_CHECK_LT(row, size());
  if (type_ == catalog::DataType::kDouble) return doubles_[row];
  return static_cast<double>(ints_[row]);
}

StatusOr<int64_t> Column::LookupCode(const std::string& v) const {
  if (type_ != catalog::DataType::kString) {
    return Status::InvalidArgument("LookupCode on non-string column");
  }
  for (size_t code = 0; code < dictionary_.size(); ++code) {
    if (dictionary_[code] == v) return static_cast<int64_t>(code);
  }
  return Status::NotFound("dictionary entry: " + v);
}

StatusOr<std::string> Column::DictionaryEntry(int64_t code) const {
  if (type_ != catalog::DataType::kString) {
    return Status::InvalidArgument("DictionaryEntry on non-string column");
  }
  if (code < 0 || static_cast<size_t>(code) >= dictionary_.size()) {
    return Status::OutOfRange("dictionary code out of range");
  }
  return dictionary_[static_cast<size_t>(code)];
}

int64_t Column::AvgWidthBytes() const {
  if (type_ != catalog::DataType::kString) {
    return catalog::FixedWidthBytes(type_);
  }
  if (dictionary_.empty()) return catalog::FixedWidthBytes(type_);
  return static_cast<int64_t>(dictionary_bytes_ / dictionary_.size()) + 1;
}

void Column::Reserve(size_t rows) {
  if (type_ == catalog::DataType::kDouble) {
    doubles_.reserve(rows);
  } else {
    ints_.reserve(rows);
  }
}

}  // namespace zerodb::storage
