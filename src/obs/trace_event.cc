#include "obs/trace_event.h"

#include <utility>

#include "common/sync.h"
#include "obs/export.h"
#include "obs/pool_telemetry.h"

namespace zerodb::obs {

namespace {

/// Small dense per-thread key (stable for the thread's lifetime), used to
/// index recorder buffers without hashing std::thread::id.
int CurrentThreadKey() {
  static std::atomic<int> next_key{0};
  thread_local int key = next_key.fetch_add(1, std::memory_order_relaxed);
  return key;
}

std::atomic<uint64_t> g_next_recorder_serial{1};

thread_local std::string* t_thread_trace_name = nullptr;

/// One-entry cache: the last (recorder serial, buffer) this thread touched.
/// Serial (not pointer) keyed, so a recorder reallocated at the same address
/// can never alias a stale cache entry.
struct BufferCache {
  uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local BufferCache t_buffer_cache;

}  // namespace

void SetCurrentThreadTraceName(std::string name) {
  if (t_thread_trace_name == nullptr) {
    // Leaked once per thread naming itself; threads are pooled and bounded.
    // zerodb-lint: allow(naked-new): deliberate per-thread leak, see above
    t_thread_trace_name = new std::string();
  }
  *t_thread_trace_name = std::move(name);
}

std::atomic<TraceEventRecorder*> TraceEventRecorder::global_{nullptr};

TraceEventRecorder::TraceEventRecorder(Options options)
    : options_(options),
      serial_(g_next_recorder_serial.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

double TraceEventRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceEventRecorder::TrackBuffer* TraceEventRecorder::BufferForThisThread() {
  if (t_buffer_cache.serial == serial_) {
    return static_cast<TrackBuffer*>(t_buffer_cache.buffer);
  }
  const int key = CurrentThreadKey();
  TrackBuffer* buffer = nullptr;
  {
    MutexLock lock(&mu_);
    for (auto& [existing_key, existing] : buffers_) {
      if (existing_key == key) {
        buffer = existing.get();
        break;
      }
    }
    if (buffer == nullptr) {
      auto owned = std::make_unique<TrackBuffer>();
      owned->tid = next_tid_++;
      owned->name = t_thread_trace_name != nullptr && !t_thread_trace_name->empty()
                        ? *t_thread_trace_name
                        : "thread-" + std::to_string(owned->tid);
      buffer = owned.get();
      buffers_.emplace_back(key, std::move(owned));
    }
  }
  t_buffer_cache = {serial_, buffer};
  return buffer;
}

void TraceEventRecorder::AppendTo(TrackBuffer* buffer, Event event) {
  MutexLock lock(&buffer->mu);
  if (buffer->events.size() >= options_.max_events_per_thread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->events.push_back(std::move(event));
}

void TraceEventRecorder::AddCompleteEvent(
    std::string name, const char* category, double ts_us, double dur_us,
    std::vector<std::pair<std::string, double>> args) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = category;
  event.ph = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us < 0.0 ? 0.0 : dur_us;
  event.args = std::move(args);
  AppendTo(BufferForThisThread(), std::move(event));
}

void TraceEventRecorder::AddCounter(std::string name, double value) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = "counter";
  event.ph = 'C';
  event.ts_us = NowUs();
  event.value = value;
  AppendTo(BufferForThisThread(), std::move(event));
}

JsonValue TraceEventRecorder::ToJson() const {
  constexpr int kPid = 1;
  JsonValue events = JsonValue::Array();

  auto metadata = [&](const char* what, int tid, const std::string& name) {
    JsonValue event = JsonValue::Object();
    event.Set("ph", "M");
    event.Set("name", what);
    event.Set("pid", kPid);
    event.Set("tid", tid);
    JsonValue args = JsonValue::Object();
    args.Set("name", name);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  };
  metadata("process_name", 0, "zerodb");

  auto dump_track = [&](const TrackBuffer& track) {
    metadata("thread_name", track.tid, track.name);
    MutexLock lock(&track.mu);
    for (const Event& event : track.events) {
      JsonValue out = JsonValue::Object();
      out.Set("ph", std::string(1, event.ph));
      out.Set("name", event.name);
      out.Set("cat", event.category);
      out.Set("pid", kPid);
      out.Set("tid", track.tid);
      out.Set("ts", event.ts_us);
      if (event.ph == 'X') {
        out.Set("dur", event.dur_us);
        if (!event.args.empty()) {
          JsonValue args = JsonValue::Object();
          for (const auto& [key, value] : event.args) args.Set(key, value);
          out.Set("args", std::move(args));
        }
      } else if (event.ph == 'C') {
        JsonValue args = JsonValue::Object();
        args.Set("value", event.value);
        out.Set("args", std::move(args));
      }
      events.Append(std::move(out));
    }
  };

  {
    MutexLock lock(&mu_);
    for (const auto& [key, buffer] : buffers_) dump_track(*buffer);
  }

  int64_t dropped = dropped_events();
  if (dropped > 0) {
    JsonValue event = JsonValue::Object();
    event.Set("ph", "C");
    event.Set("name", "zerodb_dropped_events");
    event.Set("cat", "counter");
    event.Set("pid", kPid);
    event.Set("tid", 0);
    event.Set("ts", NowUs());
    JsonValue args = JsonValue::Object();
    args.Set("value", dropped);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }

  JsonValue out = JsonValue::Object();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", "ms");
  return out;
}

Status TraceEventRecorder::WriteTo(const std::string& path) const {
  std::string text = ToJson().Dump(/*indent=*/1);
  text.push_back('\n');
  return WriteFileAtomic(path, text);
}

TraceEventRecorder* TraceEventRecorder::InstallGlobal() {
  static TraceEventRecorder* recorder = new TraceEventRecorder();
  TraceEventRecorder* expected = nullptr;
  if (global_.compare_exchange_strong(expected, recorder,
                                      std::memory_order_acq_rel)) {
    if (t_thread_trace_name == nullptr || t_thread_trace_name->empty()) {
      SetCurrentThreadTraceName("main");
    }
  }
  recorder->set_enabled(true);
  // Tracing without metrics is common in tests; make sure pool workers get
  // their timeline tracks either way.
  InstallPoolTelemetry();
  return recorder;
}

}  // namespace zerodb::obs
