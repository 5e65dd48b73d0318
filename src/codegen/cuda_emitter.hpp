// CUDA source emission for original and fused kernels.
//
// The paper applied fusions by hand and names an automated source-to-source
// transformation as the natural next step (§V, §VIII). This module is that
// step for programs carrying executable bodies: it renders a
// LaunchDescriptor into compilable CUDA C, following the structure of the
// paper's Listings 6-7:
//
//   * one __global__ kernel per launch, parameters = external arrays + nz;
//   * pivot arrays staged in __shared__ tiles (one +1-padded tile per
//     pivot), loaded cooperatively each k-iteration; halo cells loaded by
//     specialised boundary warps (Listing 6's `if (ty == 0)` pattern);
//   * complex fusions recompute producer statements on the halo extension
//     and __syncthreads() between dependent segments;
//   * non-pivot reads go straight to global memory;
//   * a host-side driver that invokes the launches in order.
//
// The emitter is text-only (no CUDA toolchain required here); its output is
// validated structurally by tests and is what a user would hand to nvcc.
#pragma once

#include <string>

#include "fusion/transformer.hpp"

namespace kf {

struct CudaEmitOptions {
  /// Emit doubles (the default) or floats.
  bool single_precision = false;
};

class CudaEmitter {
 public:
  /// `program` is the (expanded) program the launches refer to; kernels
  /// that participate must carry bodies.
  CudaEmitter(const Program& program, CudaEmitOptions options = CudaEmitOptions());

  /// CUDA source of one launch (original kernel or fused kernel).
  std::string emit_kernel(const LaunchDescriptor& launch) const;

  /// Full translation unit for a fused program: all kernels + driver.
  std::string emit_program(const FusedProgram& fused) const;

 private:
  const Program& program_;
  CudaEmitOptions options_;

  std::string scalar_type() const { return options_.single_precision ? "float" : "double"; }
};

/// C-identifier-safe version of a kernel/array name.
std::string sanitize_identifier(const std::string& name);

}  // namespace kf
