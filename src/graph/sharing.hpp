// Sharing sets and degree of kinship (paper Table II).
//
// Two kernels are "kin" when a chain of pairwise array-sharing links them;
// the chain length minus one is the degree of kinship. Constraint (1.5)
// requires every pair inside a new kernel to have kinship > 0. For fusion
// to be *useful* (not just legal) the chain must run through the group's
// own members — fusing two kernels whose only kinship path runs through an
// outside kernel reuses nothing — so group_connected() checks connectivity
// of the induced subgraph, while kinship() reports the global chain length.
#pragma once

#include <span>
#include <vector>

#include "graph/dag.hpp"
#include "ir/program.hpp"

namespace kf {

class SharingGraph {
 public:
  static SharingGraph build(const Program& program);

  int num_kernels() const noexcept { return static_cast<int>(adj_.size()); }

  /// K(D): kernels touching array D, in invocation order.
  const std::vector<KernelId>& sharing_set(ArrayId array) const;

  /// All arrays with |K(D)| >= 2 ("shared arrays").
  std::vector<ArrayId> shared_arrays() const;

  /// Arrays shared by at least two kernels *within* the group — the
  /// candidate kernel pivot of a fusion of this group.
  std::vector<ArrayId> shared_within(std::span<const KernelId> group) const;

  /// True iff a and b directly share at least one array.
  bool direct_share(KernelId a, KernelId b) const;

  /// Degree of kinship: 1 for a direct share, chain length - 1 through the
  /// global sharing graph, 0 when disconnected (or a == b).
  int kinship(KernelId a, KernelId b) const;

  /// Connectivity of the subgraph induced by `group` (singletons: true): a
  /// frontier BFS over adjacency bit rows, masked by the group. A repeated
  /// member counts as unreached, so such a group is never connected. Throws
  /// on an id out of range; allocates nothing once the calling thread's
  /// scratch is warm.
  bool group_connected(std::span<const KernelId> group) const;

  const std::vector<KernelId>& neighbours(KernelId k) const;

 private:
  std::vector<std::vector<KernelId>> adj_;            // kernel -> kernels sharing an array
  BitMatrix adj_bits_;                                // adj_ as bit rows
  std::vector<std::vector<KernelId>> array_kernels_;  // array -> kernels touching it
};

}  // namespace kf
