// Shared Chrome trace-event ("catapult") JSON writer.
//
// Every trace artifact kfc emits — the simulated fused-schedule timeline
// (`--trace`, EventTrace::to_chrome_trace_json) and the host span profile
// (`--spans`, SpanTracer) — goes through this writer so the files share one
// coordinate convention and load side by side in a single Perfetto view.
//
// pid/tid conventions (also documented in README "Observability"):
//
//   pid 1 "device timeline"   simulated block schedule of the fused program;
//                             tid = smx * 64 + slot (one row per concurrent
//                             block slot), ts in simulated time
//   pid 2 "search (host)"     wall-clock SpanTracer spans from the search
//                             hot path; tid = dense thread index in
//                             first-span order
//   pid 3 "model (simulated)" per-launch TimeBreakdown component spans of
//                             the final plan; tid 0, ts in simulated time
//   pid 4 "serve (requests)"  wall-clock request-lifecycle spans opened by
//                             PlanServer (admission, rung stages); tid =
//                             the same dense thread index as pid 2, ts in
//                             wall time, trace-id args link spans to wide
//                             events
//
// `cat` mirrors the process: "device" | "search" | "model" | "serve". All
// timestamps
// and durations are microseconds (trace-event convention); simulated time is
// mapped 1 s -> 1e6 us so device and model rows align.
//
// The output is a bare JSON array of event objects — the form both
// chrome://tracing and Perfetto accept, and what `--trace` has always
// emitted.
#pragma once

#include <string>
#include <string_view>

namespace kf {

class ChromeTraceWriter {
 public:
  /// Well-known process ids (see conventions above).
  static constexpr int kDevicePid = 1;
  static constexpr int kSearchPid = 2;
  static constexpr int kModelPid = 3;
  static constexpr int kServePid = 4;

  /// Labels a process row in the Perfetto UI ("M" metadata event).
  void process_name(int pid, std::string_view name);

  /// Labels a thread row in the Perfetto UI ("M" metadata event).
  void thread_name(int pid, int tid, std::string_view name);

  /// One complete ("ph":"X") event; `ts_us`/`dur_us` in microseconds.
  /// `args_json`, when non-empty, must be a pre-rendered JSON object (e.g.
  /// `{"trace_id":"..."}`) and is emitted verbatim as the event's "args".
  void complete_event(std::string_view name, std::string_view cat, int pid,
                      int tid, double ts_us, double dur_us,
                      std::string_view args_json = {});

  /// Events written so far (metadata included).
  long events() const noexcept { return events_; }

  /// Closes the JSON array and returns the document; the writer is spent
  /// afterwards (further use starts a fresh document).
  std::string finish();

 private:
  void begin_event();

  std::string out_;
  long events_ = 0;
};

}  // namespace kf
