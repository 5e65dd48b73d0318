#include "gpu/timing_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace kf {
namespace {

/// Stencil derate of the device's theoretical FLOP peak.
constexpr double kFlopEfficiency = 0.65;

}  // namespace

const char* TimeBreakdown::component_name(int index) noexcept {
  switch (index) {
    case 0: return "gmem_traffic";
    case 1: return "halo";
    case 2: return "latency_stall";
    case 3: return "smem";
    case 4: return "barrier";
    case 5: return "compute";
    case 6: return "launch";
    default: return "unknown";
  }
}

double TimeBreakdown::component(int index) const noexcept {
  switch (index) {
    case 0: return gmem_traffic_s;
    case 1: return halo_s;
    case 2: return latency_stall_s;
    case 3: return smem_s;
    case 4: return barrier_s;
    case 5: return compute_s;
    case 6: return launch_s;
    default: return 0.0;
  }
}

int TimeBreakdown::dominant_component() const noexcept {
  int best = 0;
  for (int i = 1; i < kComponents; ++i)
    if (component(i) > component(best)) best = i;
  return best;
}

TimingSimulator::TimingSimulator(DeviceSpec device, Options options)
    : device_(std::move(device)),
      options_(options),
      device_name_hash_(mix64(std::hash<std::string>{}(device_.name))) {
  KF_REQUIRE(options_.noise_amplitude >= 0.0 && options_.noise_amplitude < 0.5,
             "noise amplitude out of range");
}

double TimingSimulator::noise_factor(std::uint64_t launch_name_hash,
                                     std::span<const KernelId> members) const {
  if (options_.noise_amplitude == 0.0) return 1.0;
  std::uint64_t h = device_name_hash_;
  h ^= mix64(launch_name_hash);
  for (KernelId k : members) h = mix64(h + static_cast<std::uint64_t>(k) + 1);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
  return 1.0 + options_.noise_amplitude * (2.0 * u - 1.0);
}

SimResult TimingSimulator::run(const Program& program,
                               const LaunchDescriptor& launch) const {
  KF_REQUIRE(!launch.members.empty(), "launch descriptor has no members");
  // Fault-injection hook for fused candidates only: original kernels are
  // profiled once up-front and treated as ground truth, so the resilience
  // machinery targets the launches the search actually explores.
  if (launch.is_fused()) {
    FaultInjector::instance().maybe_throw(FaultSite::Simulator,
                                          fault_key(launch.members),
                                          "timing simulation failed");
  }
  SimResult r;

  // ---- register demand & spilling ----
  // The descriptor's register count is the code generator's *estimate*;
  // the real allocator diverges from any model (the paper calls
  // understanding nvcc's allocation "futile", §IV-B). A deterministic
  // per-kernel deviation, biased upward, stands in for that: fusions whose
  // estimate sits near a resource cliff sometimes cross it on real
  // hardware — the source of the paper's unproductive new kernels.
  const std::uint64_t launch_name_hash = std::hash<std::string>{}(launch.name);
  int regs = launch.regs_per_thread;
  {
    std::uint64_t h = mix64(launch_name_hash ^ 0x9e37u);
    for (KernelId k : launch.members) h = mix64(h + static_cast<std::uint64_t>(k) + 17);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
    const double deviation = 0.08 * (1.5 * u - 0.5);            // [-4%, +8%)
    regs = std::max(regs, static_cast<int>(std::lround(regs * (1.0 + deviation))));
  }
  const int regs_demanded = regs;
  if (regs > device_.max_regs_per_thread) {
    r.spilled = true;
    regs = device_.max_regs_per_thread;
  }

  // ---- occupancy ----
  r.occupancy = compute_occupancy(device_, program.launch().threads_per_block(), regs,
                                  launch.smem_per_block_bytes);
  if (!r.occupancy.feasible() ||
      r.occupancy.limiter == OccupancyLimiter::Infeasible) {
    r.launchable = false;
    r.time_s = std::numeric_limits<double>::infinity();
    r.breakdown.total_s = r.time_s;  // components stay zero: nothing to attribute
    return r;
  }

  // ---- traffic & FLOPs ----
  r.traffic = compute_traffic(program, launch);
  const double sites = static_cast<double>(program.grid().total_sites());
  r.flops = launch.flops_per_site * sites;

  // ---- latency hiding (Little's law over in-flight transactions) ----
  // Register pressure erodes memory-level parallelism: fewer free registers
  // mean fewer loads in flight per warp (the mechanism behind the paper's
  // low RegFac observation and the unproductive high-thread-load fusions).
  double mlp = device_.mlp_per_warp;
  if (regs > 128) {
    const double squeeze = static_cast<double>(regs - 128) /
                           (device_.max_regs_per_thread - 128);
    mlp = std::max(1.5, mlp * (1.0 - 0.6 * squeeze));
  }
  if (r.spilled) mlp = std::max(1.0, mlp * 0.6);

  const double latency_s = device_.gmem_latency_cycles / (device_.clock_ghz * 1e9);
  const double bw_bytes = device_.gmem_bw_gbs * 1e9;
  const double inflight_needed = bw_bytes * latency_s;
  const double inflight_available = static_cast<double>(device_.num_smx) *
                                    r.occupancy.active_warps * mlp * 128.0;
  r.latency_hiding = std::min(1.0, inflight_available / inflight_needed);

  // ---- memory time ----
  double gmem_bytes = r.traffic.gmem_total() * (1.0 - device_.l2_hit_fraction);
  if (r.spilled) {
    // Spill traffic: each spilled register costs a round trip per site.
    const int spilled_regs = regs_demanded - device_.max_regs_per_thread;
    const double spill_bytes = sites * 8.0 * 2.0 * spilled_regs;
    gmem_bytes += spill_bytes * (device_.regs_spill_to_l2 ? device_.spill_penalty : 1.0);
  }
  r.achieved_bw_gbs = device_.gmem_bw_gbs * r.latency_hiding;
  r.mem_time_s = gmem_bytes / (r.achieved_bw_gbs * 1e9);

  // ---- compute time ----
  const double compute_hiding =
      std::min(1.0, static_cast<double>(r.occupancy.active_warps) / 16.0);
  r.compute_time_s =
      r.flops / (device_.peak_gflops * 1e9 * kFlopEfficiency * compute_hiding);

  // ---- shared-memory time ----
  if (r.traffic.smem_bytes > 0.0) {
    const int tile_width =
        program.launch().block_x + 2 * launch.halo_radius;
    const int tile_height = program.launch().block_y + 2 * launch.halo_radius;
    // Padding is possible while the per-SMX usage leaves the Eq.-7 reserve.
    const long used = launch.smem_per_block_bytes * r.occupancy.blocks_per_smx;
    const bool pad_possible =
        used + conflict_padding_reserve(device_, used) <= device_.smem_per_smx;
    int elem_bytes = 4;
    for (const ArrayInfo& a : program.arrays()) {
      elem_bytes = std::max(elem_bytes, a.elem_bytes);
    }
    const BankConflictAnalysis bc =
        analyze_bank_conflicts(device_, tile_width, tile_height, elem_bytes,
                               program.launch().block_x);
    r.conflict_factor = conflict_slowdown(bc, pad_possible);
    r.smem_time_s =
        r.traffic.smem_bytes * r.conflict_factor / device_.smem_bw_bytes_per_s();
  }

  // ---- barriers ----
  const long blocks = program.blocks();
  const long concurrent = static_cast<long>(device_.num_smx) * r.occupancy.blocks_per_smx;
  const long waves = (blocks + concurrent - 1) / concurrent;
  r.barrier_time_s = static_cast<double>(waves) * program.grid().nz * launch.barriers *
                     device_.barrier_cycles / (device_.clock_ghz * 1e9);

  r.launch_time_s = device_.launch_overhead_s;

  // One jitter draw per simulation, shared with the breakdown scaling below
  // (the factor is a pure function of device + launch, so reusing the value
  // is bit-identical to recomputing it).
  const double noise = noise_factor(launch_name_hash, launch.members);
  r.time_s = (std::max({r.mem_time_s, r.compute_time_s, r.smem_time_s}) +
              device_.smem_overlap_penalty * r.smem_time_s + r.barrier_time_s +
              r.launch_time_s) *
             noise;

  // ---- cost attribution (TimeBreakdown) ----
  // Charge only the winner of the max(mem, compute, smem) race — the losing
  // pipelines execute underneath it — then add the serial terms. Every
  // component is scaled by the same noise factor as time_s, so the pre-noise
  // identity (components sum to the pre-noise total) carries over exactly.
  {
    TimeBreakdown& b = r.breakdown;
    b.smem_s = device_.smem_overlap_penalty * r.smem_time_s;
    b.barrier_s = r.barrier_time_s;
    b.launch_s = r.launch_time_s;
    const double dominant = std::max({r.mem_time_s, r.compute_time_s, r.smem_time_s});
    if (dominant == r.mem_time_s) {
      // Split memory time into traffic-at-peak vs the stall the latency-
      // hiding shortfall adds, then carve the halo-staging share out of the
      // traffic term (spill bytes count as plain traffic).
      const double peak_time = gmem_bytes / (device_.gmem_bw_gbs * 1e9);
      b.latency_stall_s = r.mem_time_s - peak_time;
      const double halo_eff_bytes =
          r.traffic.halo_bytes * (1.0 - device_.l2_hit_fraction);
      const double halo_frac =
          gmem_bytes > 0.0 ? std::min(1.0, halo_eff_bytes / gmem_bytes) : 0.0;
      b.halo_s = peak_time * halo_frac;
      b.gmem_traffic_s = peak_time - b.halo_s;
    } else if (dominant == r.compute_time_s) {
      const double halo_frac =
          launch.flops_per_site > 0.0
              ? std::min(1.0, launch.halo_flops_per_site / launch.flops_per_site)
              : 0.0;
      b.halo_s = r.compute_time_s * halo_frac;
      b.compute_s = r.compute_time_s - b.halo_s;
    } else {
      b.smem_s += r.smem_time_s;
    }
    b.gmem_traffic_s *= noise;
    b.halo_s *= noise;
    b.latency_stall_s *= noise;
    b.smem_s *= noise;
    b.barrier_s *= noise;
    b.compute_s *= noise;
    b.launch_s *= noise;
    b.total_s = r.time_s;
  }
  return r;
}

SimResult TimingSimulator::run_original(const Program& program, KernelId kernel) const {
  return run(program, descriptor_for_original(program, kernel));
}

double TimingSimulator::original_sum(const Program& program,
                                     std::span<const KernelId> members) const {
  double total = 0.0;
  for (KernelId k : members) total += run_original(program, k).time_s;
  return total;
}

double TimingSimulator::program_time(const Program& program) const {
  double total = 0.0;
  for (KernelId k = 0; k < program.num_kernels(); ++k) {
    total += run_original(program, k).time_s;
  }
  return total;
}

}  // namespace kf
