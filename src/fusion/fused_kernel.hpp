// Construction of new-kernel launch descriptors from groups.
//
// Given a group of original kernels, FusedKernelBuilder derives what the
// generated CUDA kernel would look like resource-wise: the kernel pivot
// (shared arrays staged in SMEM), whether the fusion is simple or complex
// (§II-D — internal producer->consumer precedences force barriers, and
// offset reads of produced arrays force halo *recomputation* by
// specialised warps), the SMEM footprint including bank-conflict padding,
// an estimated register demand, and the FLOP aggregate including halo
// overhead. The estimate models nvcc's behaviour with a handful of
// explicit parameters (FusionCostParams) rather than hidden constants.
//
// The search builds a descriptor for every distinct group it checks, so a
// build is kept cheap: the program-wide facts it needs (which arrays any
// kernel writes, each access's horizontal radius and thread load, the
// resolved read-only-cache budget) are computed once in the constructor,
// and a build's per-array bookkeeping lives in reused per-thread scratch.
// The program must be valid (Program::validate: one access per kernel and
// array) and must not change after the builder is constructed.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "gpu/launch_descriptor.hpp"
#include "ir/program.hpp"

namespace kf {

/// Knobs modelling the code generator / compiler behaviour for new kernels.
struct FusionCostParams {
  /// Fraction of a secondary member's non-address registers that stay live
  /// when its code is appended to another kernel (register reuse across
  /// segments is imperfect; cf. the paper's RegFac discussion).
  double secondary_reg_fraction = 0.30;
  /// Extra registers per pivot array (SMEM base pointers + staging).
  int regs_per_pivot = 2;
  /// Extra address registers for the combined index arithmetic.
  int fused_addr_regs = 4;
  /// Read-only-cache budget per SMX for offloading program-wide read-only
  /// shared arrays (§II-C). Set to 0 to disable the optimisation; a
  /// negative value means "use the target device's capacity" (the
  /// LegalityChecker fills it in; a bare builder assumes a K20X).
  long rocache_bytes = -1;
};

class FusedKernelBuilder {
 public:
  explicit FusedKernelBuilder(const Program& program, FusionCostParams params = FusionCostParams());

  /// Builds the descriptor for one group (members need not be sorted;
  /// they are processed in invocation order). A singleton group returns
  /// descriptor_for_original(). Thread-safe.
  LaunchDescriptor build(std::span<const KernelId> group) const;

  const FusionCostParams& params() const noexcept { return params_; }

  /// Descriptors of groups with two or more members built so far (relaxed
  /// count, for tests and audits of how often the search builds).
  long fused_builds() const noexcept { return fused_builds_.load(std::memory_order_relaxed); }

 private:
  /// One kernel's use of one array, reduced to what build() reads.
  struct Access {
    ArrayId array = kInvalidArray;
    int radius = 0;       ///< horizontal stencil radius
    int thread_load = 0;  ///< distinct horizontal offsets
    bool read = false;
    bool write = false;
  };
  /// Per-array facts that do not depend on the group.
  struct ArrayFacts {
    long elem_bytes = 0;
    long rocache_tile_bytes = 0;  ///< read-only-cache footprint of one tile
    bool rocache_eligible = false;  ///< flagged and written by no kernel
  };

  const Program& program_;
  FusionCostParams params_;
  long rocache_budget_ = 0;  ///< params_.rocache_bytes, resolved
  std::vector<int> access_begin_;  ///< kernel k: accesses_[access_begin_[k], access_begin_[k+1])
  std::vector<Access> accesses_;
  std::vector<ArrayFacts> arrays_;
  mutable std::atomic<long> fused_builds_{0};

  std::span<const Access> accesses_of(KernelId k) const noexcept {
    const auto b = static_cast<std::size_t>(access_begin_[static_cast<std::size_t>(k)]);
    const auto e = static_cast<std::size_t>(access_begin_[static_cast<std::size_t>(k) + 1]);
    return std::span<const Access>(accesses_.data() + b, e - b);
  }
};

}  // namespace kf
