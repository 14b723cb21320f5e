#include "obs/export.h"

#include <cstdio>

#include "obs/quality.h"

namespace zerodb::obs {

Status WriteFileAtomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open " + tmp + " for writing");
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), file);
  int close_result = std::fclose(file);
  if (written != text.size() || close_result != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status();
}

JsonValue MetricsArtifact::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("name", name_);
  if (!labels_.empty()) {
    JsonValue labels = JsonValue::Object();
    for (const auto& [key, value] : labels_) labels.Set(key, value);
    out.Set("labels", std::move(labels));
  }
  if (registry_ != nullptr) out.Set("metrics", registry_->ToJson());
  if (!training_.empty()) {
    JsonValue training = JsonValue::Object();
    for (const auto& [name, history] : training_) {
      training.Set(name, HistoryToJson(history));
    }
    out.Set("training", std::move(training));
  }
  if (quality_ != nullptr) out.Set("quality", quality_->ToJson());
  return out;
}

Status MetricsArtifact::WriteTo(const std::string& path) const {
  std::string text = ToJson().Dump(/*indent=*/2);
  text.push_back('\n');
  return WriteFileAtomic(path, text);
}

}  // namespace zerodb::obs
