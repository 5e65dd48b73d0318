// Wall-clock stopwatch used by the search heuristic, telemetry and benches.
//
// Clock guarantee: backed by std::chrono::steady_clock, so readings are
// monotonic — immune to NTP slews and manual clock changes. Telemetry
// timestamps (TraceLog's `ts` field) and search deadlines are taken from
// this class rather than ad-hoc chrono calls so every subsystem shares the
// same monotonicity contract.
#pragma once

#include <chrono>

namespace kf {

class Stopwatch {
 public:
  Stopwatch() noexcept { reset(); }

  void reset() noexcept { start_ = lap_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double elapsed_s() const noexcept {
    const auto d = Clock::now() - start_;
    return std::chrono::duration<double>(d).count();
  }

  /// Seconds since the previous lap_s() (or construction/reset), advancing
  /// the lap marker: consecutive calls partition elapsed time into
  /// non-overlapping intervals (per-generation timing, heartbeat deltas).
  double lap_s() noexcept {
    const auto now = Clock::now();
    const double d = std::chrono::duration<double>(now - lap_).count();
    lap_ = now;
    return d;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
  Clock::time_point lap_;
};

}  // namespace kf
