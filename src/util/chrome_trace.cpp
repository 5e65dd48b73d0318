#include "util/chrome_trace.hpp"

#include <cmath>

#include "util/string_util.hpp"

namespace kf {

void ChromeTraceWriter::begin_event() {
  out_ += out_.empty() ? "[\n" : ",\n";
  ++events_;
}

void ChromeTraceWriter::process_name(int pid, std::string_view name) {
  begin_event();
  out_ += strprintf(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
      "\"args\":{\"name\":",
      pid);
  append_json_string(out_, name);
  out_ += "}}";
}

void ChromeTraceWriter::thread_name(int pid, int tid, std::string_view name) {
  begin_event();
  out_ += strprintf(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
      "\"args\":{\"name\":",
      pid, tid);
  append_json_string(out_, name);
  out_ += "}}";
}

void ChromeTraceWriter::complete_event(std::string_view name,
                                       std::string_view cat, int pid, int tid,
                                       double ts_us, double dur_us,
                                       std::string_view args_json) {
  // Non-finite coordinates would corrupt the document; clamp to zero so one
  // bad sample cannot make the whole trace unloadable.
  if (!std::isfinite(ts_us)) ts_us = 0.0;
  if (!std::isfinite(dur_us)) dur_us = 0.0;
  begin_event();
  out_ += "{\"name\":";
  append_json_string(out_, name);
  out_ += ",\"cat\":";
  append_json_string(out_, cat);
  out_ += strprintf(",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                    pid, tid, ts_us, dur_us);
  if (!args_json.empty()) {
    out_ += ",\"args\":";
    out_ += args_json;  // caller-supplied pre-rendered JSON object
  }
  out_ += '}';
}

std::string ChromeTraceWriter::finish() {
  std::string doc = std::move(out_);
  out_.clear();
  events_ = 0;
  doc += doc.empty() ? "[]\n" : "\n]\n";
  return doc;
}

}  // namespace kf
