// kf::Program — the whole-program IR.
//
// A Program is an ordered sequence of kernel invocations over a set of data
// arrays, plus the grid/launch configuration shared by all kernels (the
// paper assumes identical launch configurations across original and fused
// kernels, §II-C). Kernel order is invocation order in the original host
// code; the dependency analysis derives everything else from it.
#pragma once

#include <string>
#include <vector>

#include "ir/ids.hpp"
#include "ir/kernel_info.hpp"

namespace kf {

/// Problem grid (one thread per (i, j) column; threads march over k).
struct GridDims {
  long nx = 256;
  long ny = 256;
  long nz = 64;

  long total_sites() const noexcept { return nx * ny * nz; }
};

/// CUDA-style launch configuration in the horizontal plane.
struct LaunchConfig {
  int block_x = 32;
  int block_y = 4;

  int threads_per_block() const noexcept { return block_x * block_y; }  ///< Thr
};

class Program {
 public:
  Program() = default;
  Program(std::string name, GridDims grid, LaunchConfig launch = {});

  const std::string& name() const noexcept { return name_; }
  const GridDims& grid() const noexcept { return grid_; }
  const LaunchConfig& launch() const noexcept { return launch_; }
  void set_launch(const LaunchConfig& launch);

  ArrayId add_array(ArrayInfo info);
  ArrayId add_array(std::string name, int elem_bytes = 8);
  KernelId add_kernel(KernelInfo info);

  int num_arrays() const noexcept { return static_cast<int>(arrays_.size()); }
  int num_kernels() const noexcept { return static_cast<int>(kernels_.size()); }

  const ArrayInfo& array(ArrayId id) const;
  ArrayInfo& array(ArrayId id);
  const KernelInfo& kernel(KernelId id) const;
  KernelInfo& kernel(KernelId id);

  const std::vector<ArrayInfo>& arrays() const noexcept { return arrays_; }
  const std::vector<KernelInfo>& kernels() const noexcept { return kernels_; }

  ArrayId find_array(const std::string& name) const noexcept;   ///< -1 if absent
  KernelId find_kernel(const std::string& name) const noexcept; ///< -1 if absent

  /// Number of thread blocks per kernel launch (the paper's B).
  long blocks() const noexcept;

  /// Bytes of one full 3D array.
  double array_bytes(ArrayId id) const;

  /// True if every kernel has an executable body.
  bool fully_executable() const noexcept;

  /// Throws PreconditionError describing the first structural problem:
  /// out-of-range array ids, duplicate names, kernels without accesses,
  /// writes with non-center patterns.
  void validate() const;

  /// Copy with every array's element width set to `elem_bytes` (4 = single
  /// precision, as the paper uses on the GTX 750 Ti).
  Program with_precision(int elem_bytes) const;

 private:
  std::string name_ = "program";
  GridDims grid_;
  LaunchConfig launch_;
  std::vector<ArrayInfo> arrays_;
  std::vector<KernelInfo> kernels_;
};

}  // namespace kf
