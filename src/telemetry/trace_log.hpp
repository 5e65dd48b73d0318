// TraceLog — append-only JSONL structured event log.
//
// Every emitted event is one JSON object on its own line:
//
//   {"ts":0.012345678,"type":"generation","gen":3,"best_cost_s":...}
//
// `ts` is seconds since the log was opened, read from a kf::Stopwatch —
// i.e. std::chrono::steady_clock, so timestamps are monotonic even across
// system clock adjustments. `type` names the event; remaining fields are
// event-specific (the stable schema is documented in the README
// "Observability" section). Consumers parse line-by-line; a crashed run
// leaves a readable prefix because each event is flushed whole.
//
// A default-constructed TraceLog is a no-op sink: emit() tests one pointer
// and returns without invoking the field-builder callback, so disabled
// tracing costs one branch and performs no allocation (tested by
// tests/test_telemetry.cpp). Emission is thread-safe: the line is built in
// a thread-local buffer and written under a mutex.
#pragma once

#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "telemetry/json.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"

namespace kf {

/// Field builder handed to TraceLog::emit's callback; appends key/value
/// pairs to the current event line.
class TraceEvent {
 public:
  TraceEvent& num(std::string_view key, double v) {
    begin(key);
    append_json_number(*line_, v);
    return *this;
  }
  TraceEvent& num(std::string_view key, long v) {
    return num(key, static_cast<double>(v));
  }
  TraceEvent& num(std::string_view key, int v) {
    return num(key, static_cast<double>(v));
  }
  TraceEvent& num(std::string_view key, std::size_t v) {
    return num(key, static_cast<double>(v));
  }
  TraceEvent& str(std::string_view key, std::string_view v) {
    begin(key);
    append_json_string(*line_, v);
    return *this;
  }
  TraceEvent& boolean(std::string_view key, bool v) {
    begin(key);
    *line_ += v ? "true" : "false";
    return *this;
  }
  /// Embeds a pre-built JSON value (arrays, nested objects).
  TraceEvent& json(std::string_view key, const JsonValue& v) {
    begin(key);
    *line_ += v.to_string();
    return *this;
  }

 private:
  friend class TraceLog;
  explicit TraceEvent(std::string* line) : line_(line) {}
  void begin(std::string_view key) {
    *line_ += ',';
    append_json_string(*line_, key);
    *line_ += ':';
  }
  std::string* line_;
};

class TraceLog {
 public:
  TraceLog() = default;  ///< disabled: emit() is a no-op

  /// Logs to a borrowed stream (must outlive the log).
  explicit TraceLog(std::ostream& sink) : sink_(&sink) {}

  /// Opens `path` for (truncating) write; throws kf::RuntimeError when the
  /// file cannot be opened.
  explicit TraceLog(const std::string& path);

  bool enabled() const noexcept { return sink_ != nullptr; }

  /// Number of events written so far.
  long events() const noexcept { return events_; }

  /// Emits one event. `fill` receives a TraceEvent to append fields; it is
  /// not invoked when the log is disabled.
  template <typename Fn>
  void emit(std::string_view type, Fn&& fill) {
    if (sink_ == nullptr) return;
    std::string line = begin_line(type);
    TraceEvent event(&line);
    fill(event);
    write_line(line);
  }

  /// Emits a field-less event.
  void emit(std::string_view type) {
    emit(type, [](TraceEvent&) {});
  }

 private:
  std::unique_ptr<std::ostream> owned_;  ///< set when constructed from a path
  std::ostream* sink_ = nullptr;
  Stopwatch watch_;  ///< steady-clock origin for monotonic `ts`
  std::mutex mutex_;
  long events_ = 0;

  std::string begin_line(std::string_view type) const;
  void write_line(std::string& line);
};

}  // namespace kf
