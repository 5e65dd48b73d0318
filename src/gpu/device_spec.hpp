// GPU device descriptions (paper Table IV) plus the handful of
// micro-architectural constants the timing simulator needs beyond it.
//
// The three devices the paper measures on are provided as named factories;
// with_smem_capacity() builds the hypothetical large-SMEM variants of the
// §VI-E.2 speculative study. All constants are per-device data — nothing in
// the library hard-codes an architecture.
#pragma once

#include <string>

namespace kf {

struct DeviceSpec {
  std::string name;

  // ---- Table IV ----
  int num_smx = 14;                ///< SMX (Kepler) / SMM (Maxwell) count
  long regs_per_smx = 65536;       ///< 32-bit registers per SMX (the paper's 64K "R_SMX")
  long smem_per_smx = 48 * 1024;   ///< max shared memory per SMX, bytes (Sh_SMX)
  int max_regs_per_thread = 255;   ///< R_Max
  double peak_gflops = 1310.0;     ///< DP for Kepler, SP for the GTX 750 Ti (§IV)
  double gmem_bw_gbs = 202.0;      ///< STREAM bandwidth, GB/s

  // ---- architectural limits ----
  int max_blocks_per_smx = 16;     ///< doubled on Maxwell (§IV relevant feature b)
  /// Kepler's addressable 48 KB read-only (texture) cache per SMX (§II-C):
  /// program-wide read-only arrays can be served from it instead of SMEM,
  /// relaxing the on-chip capacity limit. Maxwell folds L1 into the
  /// texture path with a smaller effective budget.
  long readonly_cache_per_smx = 48 * 1024;
  int max_threads_per_smx = 2048;
  int max_threads_per_block = 1024;
  int warp_size = 32;
  int smem_banks = 32;
  int bank_width_bytes = 8;        ///< 8 on Kepler, 4 on Maxwell
  int reg_alloc_granularity = 8;   ///< registers rounded up per-thread

  // ---- timing-simulator constants ----
  double clock_ghz = 0.732;
  double gmem_latency_cycles = 300.0;   ///< average global-load latency
  double mlp_per_warp = 5.0;            ///< in-flight 128 B transactions per warp
  double l2_hit_fraction = 0.05;        ///< stray L2 reuse across blocks (§VI-F e)
  double barrier_cycles = 40.0;         ///< __syncthreads() cost
  double launch_overhead_s = 1.5e-6;    ///< amortised async kernel-launch cost
  double reg_reuse_factor = 0.85;       ///< the paper's RegFac (§IV-B)
  /// Fraction of on-chip (SMEM) access time that fails to overlap with the
  /// GMEM pipeline — barriers drain the pipelines each k-iteration, so the
  /// new SMEM operations of fused kernels add latency (§VI-F item a).
  /// Maxwell's improved scheduling overlaps better (its FE is higher).
  double smem_overlap_penalty = 0.08;
  bool regs_spill_to_l2 = false;        ///< Maxwell spills to L2 (higher penalty)
  double spill_penalty = 1.15;          ///< slowdown when R_T demand exceeds R_Max

  /// Bytes/s the SMX array can read from shared memory in aggregate.
  double smem_bw_bytes_per_s() const noexcept {
    return static_cast<double>(num_smx) * smem_banks * bank_width_bytes * clock_ghz * 1e9;
  }

  int max_warps_per_smx() const noexcept { return max_threads_per_smx / warp_size; }

  // ---- factories ----
  static DeviceSpec k20x();
  static DeviceSpec k40();
  static DeviceSpec gtx750ti();

  /// Same device with a hypothetical SMEM capacity (§VI-E.2 study).
  DeviceSpec with_smem_capacity(long bytes) const;
};

}  // namespace kf
