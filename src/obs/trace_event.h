#ifndef ZERODB_OBS_TRACE_EVENT_H_
#define ZERODB_OBS_TRACE_EVENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/json.h"

namespace zerodb::obs {

/// Sets the calling thread's display name on every timeline track it later
/// opens (pool workers call this with "pool-worker-<i>"). The name is stored
/// thread-locally, so it applies to recorders installed before *or after*
/// the call; a thread that never calls it shows up as "thread-<tid>".
void SetCurrentThreadTraceName(std::string name);

/// Records Chrome trace-event / Perfetto-loadable timelines from any number
/// of threads at once. This is zerodb's one tracing model: the executor
/// records one "exec" event per operator (work counters as args), so a
/// query's operator tree is the nesting of its events on one track.
///
/// Threading model (DESIGN.md "Timeline tracing & quality monitoring"):
/// each thread appends to its own buffer under that buffer's (annotated,
/// uncontended) Mutex; the recorder's own Mutex only guards the
/// thread-key → buffer map. ToJson/WriteTo flush by taking each buffer mutex
/// in turn, so exporting races cleanly with recording (TSan-verified in
/// tests/obs_test.cc).
///
/// Buffers are bounded: past Options::max_events_per_thread a thread's
/// further events are counted as dropped instead of recorded, so a traced
/// bench cannot OOM. A disabled (or absent) recorder never reads the clock —
/// TimelineScope is then one relaxed load and a branch.
class TraceEventRecorder {
 public:
  struct Options {
    /// Per-thread event cap; overflow is dropped and counted (see
    /// dropped_events / the trace's zerodb_dropped_events counter track).
    size_t max_events_per_thread = 1 << 15;
  };

  // Split (not a default argument) because GCC rejects using a nested
  // struct's default member initializers in a default argument of the
  // enclosing class; the delegating body runs in complete-class context.
  TraceEventRecorder() : TraceEventRecorder(Options()) {}
  explicit TraceEventRecorder(Options options);
  ~TraceEventRecorder() = default;

  TraceEventRecorder(const TraceEventRecorder&) = delete;
  TraceEventRecorder& operator=(const TraceEventRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Microseconds since this recorder's construction (its timeline epoch).
  double NowUs() const;

  /// Appends a complete ("ph":"X") event to the calling thread's track.
  /// `category` must be a string literal (stored by pointer). No-op while
  /// disabled.
  void AddCompleteEvent(std::string name, const char* category, double ts_us,
                        double dur_us,
                        std::vector<std::pair<std::string, double>> args = {})
      ZDB_EXCLUDES(mu_);

  /// Appends a counter ("ph":"C") sample on the calling thread's track.
  void AddCounter(std::string name, double value) ZDB_EXCLUDES(mu_);

  /// Events discarded because a buffer hit max_events_per_thread.
  int64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — loadable by
  /// chrome://tracing and ui.perfetto.dev. Includes process_name /
  /// thread_name metadata ("ph":"M") events for every track.
  JsonValue ToJson() const ZDB_EXCLUDES(mu_);

  /// Serializes to `path` crash-safely (tmp file + atomic rename).
  Status WriteTo(const std::string& path) const ZDB_EXCLUDES(mu_);

  /// The process-global recorder the built-in instrumentation (thread pool,
  /// trainer, executor, featurizer, estimator) reports to. nullptr — the
  /// default — disables every timeline site at the cost of one relaxed load.
  static TraceEventRecorder* Global() {
    return global_.load(std::memory_order_acquire);
  }

  /// Creates (first call; leak-singleton) and enables the global recorder,
  /// naming the calling thread "main" unless it already has a trace name.
  /// Returns the recorder; later calls return the same one.
  static TraceEventRecorder* InstallGlobal();

 private:
  struct Event {
    std::string name;
    const char* category = nullptr;  ///< string literal
    char ph = 'X';
    double ts_us = 0.0;
    double dur_us = 0.0;   ///< 'X' only
    double value = 0.0;    ///< 'C' only
    std::vector<std::pair<std::string, double>> args;  ///< 'X' only
  };

  struct TrackBuffer {
    mutable Mutex mu;
    int tid = 0;
    std::string name;
    std::vector<Event> events ZDB_GUARDED_BY(mu);
  };

  TrackBuffer* BufferForThisThread() ZDB_EXCLUDES(mu_);
  void AppendTo(TrackBuffer* buffer, Event event);

  const Options options_;
  const uint64_t serial_;  ///< distinguishes recorders in thread-local caches
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> dropped_{0};

  mutable Mutex mu_;
  // Thread-key → buffer; entries are never erased, so the per-thread cache
  // in BufferForThisThread can hand out stable pointers.
  std::vector<std::pair<int, std::unique_ptr<TrackBuffer>>> buffers_
      ZDB_GUARDED_BY(mu_);
  int next_tid_ ZDB_GUARDED_BY(mu_) = 1;  ///< 0 is the metadata pseudo-track

  static std::atomic<TraceEventRecorder*> global_;
};

/// RAII complete-event scope usable from any thread:
///
///   obs::TimelineScope scope("train.epoch");
///   scope.AddArg("epoch", 3);
///
/// Defaults to the global recorder; a nullptr or disabled recorder makes the
/// whole scope free of clock reads and allocations ("a few branches"), so
/// instrumented hot paths need no call-site branching. `name` and `category`
/// must outlive the scope (pass string literals); SetDetail appends a
/// runtime string such as a table name.
class TimelineScope {
 public:
  explicit TimelineScope(const char* name, const char* category = "zerodb",
                         TraceEventRecorder* recorder =
                             TraceEventRecorder::Global())
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                             : nullptr),
        name_(name),
        category_(category) {
    if (recorder_ != nullptr) start_us_ = recorder_->NowUs();
  }

  TimelineScope(const TimelineScope&) = delete;
  TimelineScope& operator=(const TimelineScope&) = delete;

  bool active() const { return recorder_ != nullptr; }

  void AddArg(std::string key, double value) {
    if (recorder_ != nullptr) args_.emplace_back(std::move(key), value);
  }

  /// Names the event "<name> <detail>" (e.g. "SeqScan users").
  void SetDetail(const std::string& detail) {
    if (recorder_ != nullptr) detail_ = detail;
  }

  ~TimelineScope() {
    if (recorder_ == nullptr) return;
    double end_us = recorder_->NowUs();
    std::string name = name_;
    if (!detail_.empty()) name += " " + detail_;
    recorder_->AddCompleteEvent(std::move(name), category_, start_us_,
                                end_us - start_us_, std::move(args_));
  }

 private:
  TraceEventRecorder* recorder_;
  const char* name_;
  const char* category_;
  double start_us_ = 0.0;
  std::string detail_;
  std::vector<std::pair<std::string, double>> args_;
};

}  // namespace zerodb::obs

#endif  // ZERODB_OBS_TRACE_EVENT_H_
