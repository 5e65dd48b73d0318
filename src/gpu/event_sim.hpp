// Discrete-event block-scheduler simulation.
//
// The analytic TimingSimulator treats a launch as `waves x per-wave time`;
// this module simulates the actual block-dispatch process: every SMX hosts
// up to Blocks_SMX concurrent blocks (from the occupancy calculator), a
// launch's blocks are dispatched greedily as slots free up, and the launch
// completes when its last block retires. That resolves the effects the
// closed form averages away — partial final waves ("tail effect"),
// per-block duration variation, and device utilisation over time — and
// produces a timeline that can be dumped as a Chrome-trace JSON
// (chrome://tracing / Perfetto) for inspection.
//
// Per-block durations are derived from the same architectural terms as the
// analytic model (per-block share of memory/compute/SMEM time + barrier
// cost), with a deterministic per-block jitter standing in for DRAM-bank
// and scheduling variation. Tests cross-validate the makespan against the
// analytic simulator.
#pragma once

#include <string>
#include <vector>

#include "gpu/timing_simulator.hpp"

namespace kf {

class ChromeTraceWriter;  // util/chrome_trace.hpp

struct BlockRecord {
  long block = 0;     ///< linear block index within the launch
  int smx = 0;        ///< SMX it ran on
  int slot = 0;       ///< concurrent-slot index within the SMX
  double start_s = 0.0;
  double end_s = 0.0;
};

struct LaunchTimeline {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  Occupancy occupancy;
  std::vector<BlockRecord> blocks;

  double duration_s() const noexcept { return end_s - start_s; }
};

struct EventTrace {
  std::vector<LaunchTimeline> launches;
  double makespan_s = 0.0;

  /// Average fraction of block slots busy over the makespan.
  double utilisation(const DeviceSpec& device) const;

  /// Appends the block timeline to a shared Chrome-trace writer under
  /// pid 1 "device timeline" (tid = smx * 64 + slot, one row per concurrent
  /// slot; see util/chrome_trace.hpp for the full pid/tid/cat conventions),
  /// so the device view composes with span exports in one Perfetto view.
  void append_chrome_trace(ChromeTraceWriter& writer) const;

  /// Chrome-trace ("catapult") JSON: one row per SMX slot.
  std::string to_chrome_trace_json() const;

  /// Self-contained SVG Gantt chart: one row per SMX slot, blocks coloured
  /// by launch. Handy for docs and quick visual inspection without a trace
  /// viewer.
  std::string to_svg(int width_px = 1200) const;
};

class EventSimulator {
 public:
  struct Options {
    /// Cap on per-launch block records kept in the trace (the schedule is
    /// still simulated exactly; only the record list is truncated).
    long max_records_per_launch = 100'000;
  };

  explicit EventSimulator(DeviceSpec device) : EventSimulator(std::move(device), Options()) {}
  EventSimulator(DeviceSpec device, Options options);

  const DeviceSpec& device() const noexcept { return device_; }

  /// Simulates one launch starting at `start_s`; returns its timeline.
  LaunchTimeline run(const Program& program, const LaunchDescriptor& launch,
                     double start_s = 0.0) const;

  /// Simulates a sequence of launches with global-barrier semantics
  /// between them (each launch starts when the previous one retires).
  EventTrace run_sequence(const Program& program,
                          const std::vector<LaunchDescriptor>& launches) const;

 private:
  DeviceSpec device_;
  Options options_;
  TimingSimulator analytic_;
};

}  // namespace kf
