#ifndef ZERODB_OBS_JSON_H_
#define ZERODB_OBS_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace zerodb::obs {

/// A minimal JSON document model used by the observability exporters: every
/// metrics artifact (registry dump, query trace, training telemetry) is
/// built as a JsonValue and serialized with Dump(). The read accessors
/// (Find/at/As*) let callers and tests inspect a tree before it is dumped.
/// Object keys preserve insertion order so artifacts diff cleanly across
/// runs.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}  // NOLINT
  JsonValue(int64_t value) : kind_(Kind::kInt), int_(value) {}  // NOLINT
  JsonValue(int value) : kind_(Kind::kInt), int_(value) {}  // NOLINT
  JsonValue(size_t value)  // NOLINT
      : kind_(Kind::kInt), int_(static_cast<int64_t>(value)) {}
  JsonValue(double value) : kind_(Kind::kDouble), double_(value) {}  // NOLINT
  JsonValue(std::string value)  // NOLINT
      : kind_(Kind::kString), string_(std::move(value)) {}
  JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}  // NOLINT

  static JsonValue Array() { return JsonValue(Kind::kArray); }
  static JsonValue Object() { return JsonValue(Kind::kObject); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_string() const { return kind_ == Kind::kString; }

  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Array access.
  size_t size() const;
  const JsonValue& at(size_t index) const;
  void Append(JsonValue value);

  /// Object access. Set overwrites an existing key in place.
  void Set(std::string key, JsonValue value);
  /// Returns nullptr when the key is absent (or this is not an object).
  const JsonValue* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string Dump(int indent = 0) const;

 private:
  explicit JsonValue(Kind kind) : kind_(kind) {}

  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Escapes a string for embedding in JSON output (quotes not included).
std::string JsonEscape(const std::string& text);

}  // namespace zerodb::obs

#endif  // ZERODB_OBS_JSON_H_
