#include "model/proposed_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gpu/occupancy.hpp"
#include "gpu/traffic_model.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace kf {

ProposedModel::ProposedModel(DeviceSpec device)
    : ProposedModel(std::move(device), Params{}) {}

ProposedModel::ProposedModel(DeviceSpec device, Params params)
    : device_(std::move(device)), params_(params) {
  if (params_.formulation == Formulation::PaperLiteral) name_ = "proposed-literal";
}

Projection ProposedModel::project_impl(const Program& program,
                                  const LaunchDescriptor& launch) const {
  Projection p;
  const double sites = static_cast<double>(program.grid().total_sites());
  const int elem = dominant_elem_bytes(program);
  const int thr = program.launch().threads_per_block();

  // Original kernels: the upper-bound model is defined for fusions; project
  // singletons bandwidth-first from their actual staged traffic.
  if (!launch.is_fused() || launch.pivot_arrays.empty()) {
    const double bytes = compute_traffic(program, launch).gmem_total();
    const double flops = launch.flops_per_site * sites;
    p.time_s = std::max(bytes / (device_.gmem_bw_gbs * 1e9),
                        flops / (device_.peak_gflops * 1e9));
    return p;
  }

  const double reg_fac =
      params_.reg_fac > 0.0 ? params_.reg_fac : device_.reg_reuse_factor;

  // ---- inputs from metadata ----
  const int c = launch.recompute_halo ? 1 : 0;
  const long hal = halo_points(program.launch(), launch.halo_radius);  // points
  const int h_th = c ? static_cast<int>((hal + thr - 1) / thr) : 0;

  // Pivots are stamped by ArrayId, so one pass over each member's accesses
  // finds the largest pivot thread load (Program::validate allows one
  // access per array per kernel).
  thread_local std::vector<std::uint32_t> pivot_stamp;
  thread_local std::uint32_t epoch = 0;
  if (pivot_stamp.size() < program.arrays().size()) {
    pivot_stamp.resize(program.arrays().size(), 0);
  }
  if (++epoch == 0) {
    std::fill(pivot_stamp.begin(), pivot_stamp.end(), 0);
    epoch = 1;
  }
  for (ArrayId a : launch.pivot_arrays) {
    KF_REQUIRE(a >= 0 && static_cast<std::size_t>(a) < program.arrays().size(),
               "pivot array id " << a << " out of range");
    pivot_stamp[static_cast<std::size_t>(a)] = epoch;
  }

  int t_b = thr;  // active threads: min over members (Eq. 7 note)
  int max_thrld = 1;
  for (KernelId k : launch.members) {
    const KernelInfo& kernel = program.kernel(k);
    if (kernel.active_threads > 0) t_b = std::min(t_b, kernel.active_threads);
    for (const ArrayAccess& acc : kernel.accesses) {
      if (acc.is_read() && pivot_stamp[static_cast<std::size_t>(acc.array)] == epoch) {
        max_thrld = std::max(max_thrld, acc.pattern.thread_load());
      }
    }
  }
  const int shr = static_cast<int>(launch.pivot_arrays.size());  // |ShrLst|

  int r_adr = 0;
  for (KernelId k : launch.members) {
    r_adr = std::max(r_adr, program.kernel(k).addr_regs);
  }

  // ---- Eq. 5-6: register constraint ----
  const int r_fetch = 1 + c * h_th;
  const int r_t = r_fetch + static_cast<int>(std::ceil(reg_fac * max_thrld)) +
                  c * h_th + r_adr + 1;
  p.regs_estimate = r_t;
  if (r_t > device_.max_regs_per_thread) {
    p.feasible = false;
    p.infeasible_reason =
        strprintf("Eq.6: projected registers %d exceed R_Max %d", r_t,
                  device_.max_regs_per_thread);
    p.time_s = std::numeric_limits<double>::infinity();
    return p;
  }

  // ---- Eq. 3: blocks bounded by the register file ----
  const long regs_per_block = static_cast<long>(thr) * r_t;
  const int blocks_by_regs = static_cast<int>(device_.regs_per_smx / regs_per_block);

  // ---- Eq. 7: blocks bounded by SMEM (with the B_conf padding reserve) ----
  const long smem_block_raw = static_cast<long>(1 + c * h_th) * t_b * shr * elem;
  const long smem_block = smem_block_raw + smem_block_raw / device_.smem_banks;
  p.smem_estimate = smem_block;
  const int blocks_by_smem =
      smem_block > 0 ? static_cast<int>(device_.smem_per_smx / smem_block)
                     : device_.max_blocks_per_smx;
  if (blocks_by_smem == 0 || blocks_by_regs == 0) {
    p.feasible = false;
    p.infeasible_reason = blocks_by_smem == 0
                              ? strprintf("Eq.7: SMEM demand %ld B/block exceeds %ld",
                                          smem_block, device_.smem_per_smx)
                              : "Eq.3: register file admits zero blocks";
    p.time_s = std::numeric_limits<double>::infinity();
    return p;
  }

  const int blocks_smx =
      std::min({device_.max_blocks_per_smx, blocks_by_regs, blocks_by_smem,
                device_.max_threads_per_smx / thr});
  p.blocks_per_smx = blocks_smx;

  const double total_flops = launch.flops_per_site * sites;  // incl. halo recompute

  if (params_.formulation == Formulation::PaperLiteral) {
    // ---- Eq. 8: SMEM blocking factor ----
    const double b_sh =
        static_cast<double>(t_b) * blocks_smx / ((1 + c * h_th) * shr);
    // ---- Eq. 9: memory-bound performance, with B = launched blocks ----
    const double b_eff = b_sh * device_.num_smx /
                         (static_cast<double>(thr) * program.blocks());
    p.p_membound_gflops = b_eff * device_.gmem_bw_gbs / elem;
    // ---- Eq. 10 ----
    p.time_s = total_flops * 1e-9 / p.p_membound_gflops;
    return p;
  }

  // ---- Calibrated: Little's-law latency-hiding bound ----
  // The register demand is the larger of the Eq.-6 analytical estimate and
  // the descriptor's code-generator estimate (still codeless — both come
  // from Table III metadata). Register pressure lowers occupancy and
  // throttles per-warp memory-level parallelism (the paper's "low register
  // reuse preserves load pipelining" observation, inverted).
  const int r_t_cal = std::max(r_t, launch.regs_per_thread);
  p.regs_estimate = r_t_cal;
  if (r_t_cal > device_.max_regs_per_thread) {
    p.feasible = false;
    p.infeasible_reason = strprintf(
        "Eq.6 (calibrated): projected registers %d exceed R_Max %d", r_t_cal,
        device_.max_regs_per_thread);
    p.time_s = std::numeric_limits<double>::infinity();
    return p;
  }
  const int blocks_by_regs_cal = static_cast<int>(
      device_.regs_per_smx / (static_cast<long>(thr) * r_t_cal));
  const int blocks_cal = std::min(
      {blocks_smx, std::max(1, blocks_by_regs_cal)});
  p.blocks_per_smx = blocks_cal;

  double mlp = device_.mlp_per_warp;
  if (r_t_cal > 128) {
    const double squeeze = static_cast<double>(r_t_cal - 128) /
                           (device_.max_regs_per_thread - 128);
    mlp = std::max(1.5, mlp * (1.0 - 0.6 * squeeze));
  }

  const int warps_per_block = (thr + device_.warp_size - 1) / device_.warp_size;
  const double active_warps = static_cast<double>(blocks_cal) * warps_per_block;
  const double latency_s = device_.gmem_latency_cycles / (device_.clock_ghz * 1e9);
  const double bw_bytes = device_.gmem_bw_gbs * 1e9;
  const double inflight_available =
      static_cast<double>(device_.num_smx) * active_warps * mlp * 128.0;
  const double hiding = std::min(1.0, inflight_available / (bw_bytes * latency_s));

  const TrafficBreakdown traffic = compute_traffic(program, launch);
  const double bytes = traffic.gmem_total();
  const double mem_time = bytes / (bw_bytes * hiding);
  const double compute_time = total_flops / (device_.peak_gflops * 1e9);
  // On-chip throughput bound: the staged reuse itself consumes SMEM
  // bandwidth (assuming the Eq.-7 padding keeps tiles conflict-free) —
  // significant on Maxwell, whose SMEM:GMEM bandwidth ratio is lower.
  const double smem_time = traffic.smem_bytes / device_.smem_bw_bytes_per_s();
  p.time_s = std::max({mem_time, compute_time, smem_time}) +
             device_.smem_overlap_penalty * smem_time;
  p.p_membound_gflops = (total_flops / bytes) * device_.gmem_bw_gbs * hiding;
  return p;
}

}  // namespace kf
