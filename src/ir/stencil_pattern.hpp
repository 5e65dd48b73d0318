// Stencil access patterns.
//
// A pattern is the set of relative grid offsets a kernel dereferences when
// it touches an array at site (i, j, k). The pattern determines
//  * the "thread load" of the access (paper Table III, ThrLD): the average
//    number of threads in a thread block that read the same element — for a
//    uniform stencil this equals the number of distinct horizontal offsets;
//  * the halo radius needed when the array is staged in shared memory.
// Vertical (k) offsets do not contribute to thread load or halos because
// the kernels march over k inside each thread (the paper's kernels loop over
// nz sequentially, cf. Fig. 3 listings).
#pragma once

#include <string>
#include <vector>

namespace kf {

struct Offset {
  int dx = 0;
  int dy = 0;
  int dz = 0;

  friend bool operator==(const Offset&, const Offset&) = default;
  friend auto operator<=>(const Offset&, const Offset&) = default;
};

/// Immutable once built: the constructor canonicalises the offsets and
/// derives the thread load and horizontal radius the traffic and
/// projection models read on every access, so reading them is free.
class StencilPattern {
 public:
  StencilPattern() = default;

  /// Deduplicates and sorts the offsets into canonical order.
  explicit StencilPattern(std::vector<Offset> offsets);

  /// The single-point pattern {(0,0,0)}.
  static StencilPattern point();

  /// 2D von-Neumann cross of given radius in the horizontal plane
  /// (e.g. radius 1 -> center + 4 face neighbours).
  static StencilPattern cross2d(int radius);

  /// Full (2r+1)^2 horizontal box.
  static StencilPattern box2d(int radius);

  /// Center plus `radius` points in -z and +z (vertical column stencil).
  static StencilPattern column(int radius);

  /// Backward-difference style pattern used throughout Fig. 3:
  /// {(0,0), (-1,0), (0,-1), (-1,-1)} truncated to `points` offsets.
  static StencilPattern backward2d(int points);

  /// Deterministic horizontal pattern with exactly `load` distinct (dx, dy)
  /// offsets: the center plus the nearest ring offsets in a fixed
  /// near-to-far order. Used by workload generators to hit a target thread
  /// load (Table V's attribute).
  static StencilPattern with_thread_load(int load);

  const std::vector<Offset>& offsets() const noexcept { return offsets_; }
  bool empty() const noexcept { return offsets_.empty(); }
  int size() const noexcept { return static_cast<int>(offsets_.size()); }

  /// Max horizontal Chebyshev radius: max(|dx|, |dy|) over offsets.
  int horizontal_radius() const noexcept { return horizontal_radius_; }

  /// Max |dz| over offsets.
  int vertical_radius() const noexcept;

  /// Number of distinct (dx, dy) offsets — the paper's ThrLD for this
  /// access (each horizontal offset means one more thread in the block
  /// touches a given element).
  int thread_load() const noexcept { return thread_load_; }

  /// Union of two patterns.
  StencilPattern merged_with(const StencilPattern& other) const;

  bool contains(const Offset& o) const noexcept;

  std::string to_string() const;

  friend bool operator==(const StencilPattern&, const StencilPattern&) = default;

 private:
  std::vector<Offset> offsets_;
  int thread_load_ = 0;
  int horizontal_radius_ = 0;
};

}  // namespace kf
