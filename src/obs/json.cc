#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace zerodb::obs {

bool JsonValue::AsBool() const {
  ZDB_CHECK(kind_ == Kind::kBool) << "JsonValue is not a bool";
  return bool_;
}

int64_t JsonValue::AsInt() const {
  if (kind_ == Kind::kDouble) return static_cast<int64_t>(double_);
  ZDB_CHECK(kind_ == Kind::kInt) << "JsonValue is not a number";
  return int_;
}

double JsonValue::AsDouble() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  ZDB_CHECK(kind_ == Kind::kDouble) << "JsonValue is not a number";
  return double_;
}

const std::string& JsonValue::AsString() const {
  ZDB_CHECK(kind_ == Kind::kString) << "JsonValue is not a string";
  return string_;
}

size_t JsonValue::size() const {
  if (kind_ == Kind::kObject) return object_.size();
  ZDB_CHECK(kind_ == Kind::kArray) << "JsonValue is not a container";
  return array_.size();
}

const JsonValue& JsonValue::at(size_t index) const {
  ZDB_CHECK(kind_ == Kind::kArray) << "JsonValue is not an array";
  ZDB_CHECK_LT(index, array_.size());
  return array_[index];
}

void JsonValue::Append(JsonValue value) {
  ZDB_CHECK(kind_ == Kind::kArray) << "JsonValue is not an array";
  array_.push_back(std::move(value));
}

void JsonValue::Set(std::string key, JsonValue value) {
  ZDB_CHECK(kind_ == Kind::kObject) << "JsonValue is not an object";
  for (auto& [existing, slot] : object_) {
    if (existing == key) {
      slot = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [existing, value] : object_) {
    if (existing == key) return &value;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  ZDB_CHECK(kind_ == Kind::kObject) << "JsonValue is not an object";
  return object_;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          // Cannot truncate: 6 chars + NUL always fit in 8.
          (void)std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

void AppendNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    *out += "null";
    return;
  }
  char buf[32];
  // Cannot truncate: %.17g of a finite double is at most 24 chars.
  (void)std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Keep the token a JSON double (a '.', 'e' or similar), so readers do
  // not take it for an integer.
  if (std::strpbrk(buf, ".eEnN") == nullptr) std::strcat(buf, ".0");
  *out += buf;
}

void AppendIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kInt:
      *out += std::to_string(int_);
      return;
    case Kind::kDouble:
      AppendNumber(out, double_);
      return;
    case Kind::kString:
      out->push_back('"');
      *out += JsonEscape(string_);
      out->push_back('"');
      return;
    case Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendIndent(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) AppendIndent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendIndent(out, indent, depth + 1);
        out->push_back('"');
        *out += JsonEscape(object_[i].first);
        *out += indent > 0 ? "\": " : "\":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) AppendIndent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

}  // namespace zerodb::obs
