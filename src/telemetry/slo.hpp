// SloTracker — rolling multi-window service-level objectives for the
// serving path.
//
// An SLO here is an *error budget*: "at most `deadline_miss_budget` of
// requests may miss their deadline", "at most `degraded_budget` may be
// served degraded", "at most `slow_budget` may exceed `latency_target_s`".
// The tracker keeps a bounded ring of per-request samples and evaluates
// each objective over several rolling windows at once (the classic
// fast-burn / slow-burn pair: a short window catches a sudden regression,
// a long window catches a slow leak).
//
// burn rate = (observed bad fraction in window) / (budgeted bad fraction)
//
// A burn rate of 1.0 means the service is consuming its error budget
// exactly as fast as it is earned; > 1.0 means the budget is burning down
// and the window's `worst_burn` feeds `kfc serve-batch`'s exit-code ladder
// (exit 7 when --slo-max-burn is exceeded) and the `kfc slo` report.
//
// Totals (requests / misses / degraded / slow) are exact counters that
// survive ring eviction, so `kfc slo` over a finished batch reconciles
// with the batch's own deadline-miss count; windows are best-effort over
// the last `capacity` samples. Time is injected by the caller (the serve
// clock), so fake-clock tests drive window eviction deterministically.
// Thread-safe; reached through the nullable Telemetry context like every
// sink (a null `slo` pointer costs one branch per request).
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/request_context.hpp"

namespace kf {

class SloTracker {
 public:
  struct Config {
    double deadline_miss_budget = 0.001;  ///< allowed deadline-miss fraction
    double degraded_budget = 0.05;        ///< allowed degraded-serve fraction
    double latency_target_s = 0.0;  ///< per-request latency target; <= 0: off
    double slow_budget = 0.05;      ///< allowed fraction above latency_target_s
    std::vector<double> windows_s = {60.0, 3600.0};  ///< rolling windows
    std::size_t capacity = std::size_t{1} << 16;     ///< sample ring bound
  };

  struct WindowReport {
    double window_s = 0.0;
    long requests = 0;
    long deadline_misses = 0;
    long degraded = 0;
    long slow = 0;
    long rung_count[kNumServeRungs] = {};
    double deadline_burn = 0.0;
    double degraded_burn = 0.0;
    double latency_burn = 0.0;  ///< 0 when latency_target_s is off
    double worst_burn = 0.0;
  };

  struct Report {
    Config config;
    long total_requests = 0;
    long total_deadline_misses = 0;
    long total_degraded = 0;
    long total_slow = 0;
    long rung_count[kNumServeRungs] = {};
    long evicted = 0;  ///< samples aged out of the ring (windows undercount)
    std::vector<WindowReport> windows;
    double worst_burn = 0.0;  ///< max over windows and objectives

    JsonValue to_json() const;  ///< the kfc-metrics/v3 "slo" block
    std::string render() const; ///< human table (kfc slo / serve-batch)
  };

  SloTracker();  ///< default Config
  explicit SloTracker(Config config);

  /// Accounts one finished request at server-clock time `t_s`.
  void record(const RequestContext& request, double t_s);
  long recorded() const;

  /// Evaluates every objective over every window ending at `now_s`.
  Report report(double now_s) const;

  /// Rebuilds a Report from a kfc-metrics/v3 "slo" block (the inverse of
  /// Report::to_json); throws kf::RuntimeError on malformed input.
  static Report from_json(const JsonValue& v);

 private:
  /// What the windows need of one request.
  struct Sample {
    double t_s = 0.0;  ///< server-clock timestamp (monotone seconds)
    double latency_s = 0.0;
    bool deadline_met = true;
    bool degraded = false;
    ServeRung rung = ServeRung::TrivialFloor;
  };

  Config config_;
  mutable std::mutex mu_;
  std::vector<Sample> ring_;
  long recorded_ = 0;
  long total_misses_ = 0;
  long total_degraded_ = 0;
  long total_slow_ = 0;
  long rung_count_[kNumServeRungs] = {};
};

}  // namespace kf
