// FusionPlan — a partition of the program's kernels into new kernels.
//
// The solution representation of the optimization problem in Fig. 4: every
// original kernel belongs to exactly one group; a group of size one is an
// unfused original kernel, larger groups become new kernels. The class
// maintains the partition invariant under the editing operations the HGGA's
// operators use (merge / move / split), and provides a canonical form so
// plans compare and print independently of group and member order.
//
// Storage is SoA: one flat member array plus a group-boundary array (group g
// is members_[begin_[g], begin_[g+1])) and the kernel->group owner map. A
// plan is three flat vectors, so copy-assignment into a recycled individual
// reuses capacity instead of allocating one vector per group, and the
// editing operations are in-place rotations — no per-edit heap traffic.
// That is what lets the population arena (search/population.hpp) run
// offspring churn allocation-free.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/ids.hpp"

namespace kf {

class FusionPlan {
 public:
  FusionPlan() = default;

  /// The identity plan: every kernel in its own group.
  explicit FusionPlan(int num_kernels);

  /// Builds from explicit groups; throws unless they form a partition of
  /// [0, num_kernels).
  static FusionPlan from_groups(int num_kernels, std::vector<std::vector<KernelId>> groups);

  /// Rebuilds this plan in place from flat group storage — group g is
  /// members[offsets[g], offsets[g+1]) — reusing this plan's capacity.
  /// Throws unless the groups form a partition of [0, num_kernels).
  void assign_flat(int num_kernels, std::span<const KernelId> members,
                   std::span<const std::int32_t> offsets);

  int num_kernels() const noexcept { return num_kernels_; }
  int num_groups() const noexcept {
    return begin_.empty() ? 0 : static_cast<int>(begin_.size()) - 1;
  }

  /// Materialized copy of the groups (cold paths: checkpointing, tests).
  std::vector<std::vector<KernelId>> groups() const;
  std::span<const KernelId> group(int g) const;

  /// The flat SoA view: all members in group order, and the boundary array
  /// (size num_groups()+1). Invalidated by any editing operation.
  std::span<const KernelId> flat_members() const noexcept { return members_; }
  std::span<const std::int32_t> flat_offsets() const noexcept { return begin_; }

  int group_of(KernelId k) const;
  /// The kernel -> group index array group_of reads, for loops that look
  /// up every edge's endpoints. Invalidated by any editing operation.
  std::span<const int> owners() const noexcept { return owner_; }

  /// Groups with at least two members (new kernels after transformation).
  int fused_group_count() const noexcept;
  /// Kernels living in groups of size >= 2.
  int fused_kernel_count() const noexcept;

  // ---- editing (all preserve the partition invariant) ----

  /// Merges group b into group a (a != b); returns the surviving group index.
  int merge_groups(int a, int b);

  /// Moves kernel k into group g (removing it from its current group;
  /// empty groups are erased).
  void move_kernel(KernelId k, int g);

  /// Splits group g back into singletons.
  void split_group(int g);

  /// Sorts members within groups and groups by first member id.
  void canonicalize();

  std::string to_string() const;

  /// Parses the to_string() format ("{0,1} {2} {3,4,5}"); inverse of
  /// to_string up to canonical order. Throws on malformed input or when
  /// the groups do not partition [0, num_kernels).
  static FusionPlan parse(int num_kernels, const std::string& text);

  friend bool operator==(const FusionPlan& a, const FusionPlan& b);

 private:
  int num_kernels_ = 0;
  std::vector<KernelId> members_;     // all members, grouped contiguously
  std::vector<std::int32_t> begin_;   // group boundaries; size num_groups()+1
  std::vector<int> owner_;            // kernel -> group index

  void rebuild_owners();
  void check_group_index(int g) const;
  void validate_partition();
};

}  // namespace kf
