// Timing simulator — the reproduction's stand-in for "measured" runtimes.
//
// The simulator is an analytical machine model of a Kepler/Maxwell-class
// GPU executing a memory-bound stencil launch. It composes mechanisms the
// projection model of §IV only bounds:
//
//   time = max(mem, compute, smem) + barriers + launch overhead
//
//   * mem:      GMEM traffic over an *achieved* bandwidth — peak scaled by
//               a Little's-law latency-hiding factor of the active warps
//               (occupancy lost to registers/SMEM directly shows up here);
//   * compute:  aggregate FLOPs (incl. halo recompute) over derated peak,
//               with its own latency-hiding requirement;
//   * smem:     on-chip traffic over SMEM bandwidth, scaled by the bank-
//               conflict degree when tiles cannot be padded;
//   * barriers: per-k-iteration __syncthreads cost across block waves;
//   * spills:   register demand beyond R_Max is spilled (to L1 on Kepler,
//               more expensively to L2 on Maxwell).
//
// A small deterministic "measurement jitter" (hash of device + launch) is
// applied so measured-vs-projected comparisons behave like real data while
// staying exactly reproducible.
#pragma once

#include <cstdint>
#include <span>

#include "gpu/bank_conflicts.hpp"
#include "gpu/device_spec.hpp"
#include "gpu/launch_descriptor.hpp"
#include "gpu/occupancy.hpp"
#include "gpu/traffic_model.hpp"

namespace kf {

/// Attribution of a SimResult's predicted time to the mechanisms that
/// produced it. Only the winning pipeline of the max(mem, compute, smem)
/// race is charged (the losers are hidden underneath it), plus the serial
/// terms that always add on top. The components sum to `total_s` (==
/// SimResult::time_s) to within 1e-9 for every launchable result; for an
/// unlaunchable result total_s is +inf and every component is zero.
struct TimeBreakdown {
  double gmem_traffic_s = 0.0;   ///< non-halo GMEM bytes at peak bandwidth
  double halo_s = 0.0;           ///< halo staging loads (mem-bound) or halo
                                 ///< recompute flops (compute-bound)
  double latency_stall_s = 0.0;  ///< memory time lost to unhidden latency
                                 ///< (achieved vs peak bandwidth gap)
  double smem_s = 0.0;           ///< SMEM serialization incl. bank-conflict
                                 ///< slowdown and the overlap penalty
  double barrier_s = 0.0;        ///< __syncthreads across block waves
  double compute_s = 0.0;        ///< non-halo FLOPs when compute-bound
  double launch_s = 0.0;         ///< per-launch overhead
  double total_s = 0.0;          ///< == SimResult::time_s

  /// Number of named components; the authoritative order for component(),
  /// component_name() and every consumer that attributes time (kfc group
  /// breakdowns, span profiles, decision provenance).
  static constexpr int kComponents = 7;
  static const char* component_name(int index) noexcept;
  /// Component value by index, in component_name() order.
  double component(int index) const noexcept;

  double component_sum() const noexcept {
    return gmem_traffic_s + halo_s + latency_stall_s + smem_s + barrier_s +
           compute_s + launch_s;
  }
  /// Index of the largest component (lowest index wins ties); the dominant
  /// mechanism decision provenance attributes a merge to.
  int dominant_component() const noexcept;
  /// Share of the total attributed to `component_s`, in [0, 1].
  double fraction(double component_s) const noexcept {
    return total_s > 0.0 && total_s < 1e300 ? component_s / total_s : 0.0;
  }
};

struct SimResult {
  bool launchable = true;      ///< false: exceeds hard per-block limits
  double time_s = 0.0;
  TimeBreakdown breakdown;     ///< where time_s comes from (sums to time_s)

  // components
  double mem_time_s = 0.0;
  double compute_time_s = 0.0;
  double smem_time_s = 0.0;
  double barrier_time_s = 0.0;
  double launch_time_s = 0.0;

  // diagnostics
  Occupancy occupancy;
  TrafficBreakdown traffic;
  double flops = 0.0;
  double latency_hiding = 1.0;   ///< 0..1 fraction of peak BW reachable
  double achieved_bw_gbs = 0.0;
  double conflict_factor = 1.0;
  bool spilled = false;
};

class TimingSimulator {
 public:
  struct Options {
    double noise_amplitude = 0.02;  ///< +-2% deterministic jitter
  };

  explicit TimingSimulator(DeviceSpec device) : TimingSimulator(std::move(device), Options()) {}
  TimingSimulator(DeviceSpec device, Options options);

  const DeviceSpec& device() const noexcept { return device_; }

  SimResult run(const Program& program, const LaunchDescriptor& launch) const;

  SimResult run_original(const Program& program, KernelId kernel) const;

  /// Sum of run_original() times over `members` — the paper's original sum.
  double original_sum(const Program& program, std::span<const KernelId> members) const;

  /// Sum of run_original() times over the whole program.
  double program_time(const Program& program) const;

 private:
  DeviceSpec device_;
  Options options_;
  std::uint64_t device_name_hash_ = 0;  ///< mixed once at construction

  /// Deterministic jitter factor. Takes the launch-name hash precomputed by
  /// run() (the name is also hashed for the register-deviation draw) so one
  /// simulation hashes each string exactly once.
  double noise_factor(std::uint64_t launch_name_hash,
                      std::span<const KernelId> members) const;
};

}  // namespace kf
