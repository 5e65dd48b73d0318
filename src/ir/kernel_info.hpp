// Kernel and array descriptions — the paper's Table III metadata.
//
// A KernelInfo is the unit the whole pipeline operates on: the dependency
// and execution-order graphs are built from its accesses, the projection
// models consume its resource metadata, and (when a body is present) the
// stencil engine executes it for functional validation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/expression.hpp"
#include "ir/ids.hpp"
#include "ir/stencil_pattern.hpp"

namespace kf {

enum class AccessMode { Read, Write, ReadWrite };

const char* to_string(AccessMode mode) noexcept;

/// One kernel's use of one array.
struct ArrayAccess {
  ArrayId array = kInvalidArray;
  AccessMode mode = AccessMode::Read;
  /// Offsets dereferenced relative to the thread's site. Writes are always
  /// at the center point (SIMT one-site-per-thread ownership).
  StencilPattern pattern = StencilPattern::point();
  /// FLOPs per site attributable to this array (the paper's Flop(x)).
  double flops = 0.0;
  /// For ReadWrite accesses: true when every read happens *after* the
  /// kernel's first write of the array (the kernel consumes its own
  /// product, e.g. Kern_A of Fig. 3 re-reading the A it just computed).
  /// False means the kernel reads the previous contents (accumulation).
  bool reads_own_product = false;

  bool is_read() const noexcept { return mode != AccessMode::Write; }
  bool is_write() const noexcept { return mode != AccessMode::Read; }
};

/// A data array. All arrays span the program's grid (the paper's uniform
/// finite-difference fields); only the element width varies.
struct ArrayInfo {
  std::string name;
  int elem_bytes = 8;  ///< 8 = double precision, 4 = single
  /// Arrays that are read-only for the whole program may be served by the
  /// Kepler 48 KB read-only cache instead of SMEM (paper §II-C).
  bool readonly_cache_eligible = false;
};

/// An original GPU kernel: accesses + Table III resource metadata +
/// (optionally) an executable body.
struct KernelInfo {
  std::string name;
  std::vector<ArrayAccess> accesses;
  /// Executable body; empty for metadata-only programs (large app models).
  std::vector<StencilStatement> body;

  // ---- Table III metadata (measured on the original kernel) ----
  int regs_per_thread = 32;  ///< R_T
  int addr_regs = 10;        ///< R_Adr: registers holding addresses/indices
  /// T_B: threads of a block active in the main computation (loop-bound
  /// alignment can idle some); 0 means all threads are active.
  int active_threads = 0;
  /// Program phase. Host-device transfers, communication (halo exchange)
  /// or CUDA stream boundaries between invocations are fusion barriers
  /// (§II-C); kernels in different phases can never be fused together.
  int phase = 0;
  double flops_per_site = 0.0;  ///< Fl, per stencil site
  /// True if the original implementation already stages its high-thread-load
  /// arrays through SMEM (the paper's rigorously optimised originals do).
  bool smem_in_original = true;

  // ---- queries ----
  const ArrayAccess* find_access(ArrayId array) const noexcept;
  bool reads(ArrayId array) const noexcept;
  bool writes(ArrayId array) const noexcept;

  /// Widest horizontal stencil radius over all read accesses.
  int max_halo_radius() const noexcept;

  /// Flop(x) — 0 when the kernel does not access the array.
  double flops_for_array(ArrayId array) const noexcept;

  /// Recompute `accesses` and `flops_per_site` from `body`, keeping the
  /// written set's patterns at the center point. Throws if the body is empty.
  void derive_metadata_from_body();
};

}  // namespace kf
