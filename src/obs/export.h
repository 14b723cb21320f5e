#ifndef ZERODB_OBS_EXPORT_H_
#define ZERODB_OBS_EXPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace zerodb::obs {

class PredictionQualityMonitor;

/// Writes `text` to `path` crash-safely: the bytes land in `<path>.tmp`
/// first and replace `path` via atomic rename, so a reader (or a crash mid
/// write) sees either the old artifact or the new one — never a torn file.
/// Every artifact writer in this module (JSON, Prometheus, traces) goes
/// through here.
Status WriteFileAtomic(const std::string& path, const std::string& text);

/// One run's observability output, assembled by benches (--metrics_out) and
/// any other caller that wants a single machine-readable artifact: registry
/// metrics + query traces + training loss curves + free-form labels.
///
/// Layout:
/// {
///   "name": "...", "labels": {...},
///   "metrics": {"counters": ..., "gauges": ..., "histograms": ...},
///   "traces": {"<trace name>": <trace-event JSON>, ...},
///   "training": {"<run name>": [{epoch,...}, ...], ...},
///   "quality": {"samples": ..., "qerror": {...}, "drift": {...}}
/// }
class MetricsArtifact {
 public:
  explicit MetricsArtifact(std::string name) : name_(std::move(name)) {}

  void AddLabel(std::string key, std::string value) {
    labels_.emplace_back(std::move(key), std::move(value));
  }
  /// The registry whose metrics are dumped (nullptr = omit section).
  void SetRegistry(const MetricsRegistry* registry) { registry_ = registry; }
  /// Embeds a timeline (TraceEventRecorder::ToJson) under "traces".
  void AddTrace(std::string name, JsonValue trace) {
    traces_.emplace_back(std::move(name), std::move(trace));
  }
  void AddTrainingRun(std::string name, std::vector<EpochStat> history) {
    training_.emplace_back(std::move(name), std::move(history));
  }
  /// The prediction-quality monitor whose rolling q-error / drift state is
  /// embedded as the "quality" section (nullptr = omit).
  void SetQualityMonitor(const PredictionQualityMonitor* monitor) {
    quality_ = monitor;
  }

  JsonValue ToJson() const;

  /// Serializes (pretty-printed) to `path` crash-safely (tmp file + atomic
  /// rename).
  Status WriteTo(const std::string& path) const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> labels_;
  const MetricsRegistry* registry_ = nullptr;
  std::vector<std::pair<std::string, JsonValue>> traces_;
  std::vector<std::pair<std::string, std::vector<EpochStat>>> training_;
  const PredictionQualityMonitor* quality_ = nullptr;
};

}  // namespace zerodb::obs

#endif  // ZERODB_OBS_EXPORT_H_
