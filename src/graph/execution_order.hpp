// Order-of-execution graph (paper Fig. 2).
//
// A DAG over kernels whose edges are the inter-kernel precedences a fusion
// must not violate. It is built from the dependency edges of the (usually
// expanded) program. Fusion legality reduces to two queries implemented
// here with dense bitsets:
//  * must_precede(a, b)   — a path a -> b exists;
//  * group_is_convex(G)   — constraint (1.3): for every a, b in G, every
//    kernel on any path a -> b is also in G. A convex group can be fused
//    without an outside kernel having to run in its middle; whether the
//    fused groups of a whole plan can still be ordered is the plan-level
//    check, LegalityChecker::cyclic_groups.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "graph/dependency_graph.hpp"
#include "ir/program.hpp"

namespace kf {

class ExecutionOrderGraph {
 public:
  static ExecutionOrderGraph build(const Program& program);
  static ExecutionOrderGraph build(const Program& program, const DependencyGraph& deps);

  int num_kernels() const noexcept { return dag_.size(); }
  const Dag& dag() const noexcept { return dag_; }

  /// True iff instructions of `a` must execute before those of `b`.
  bool must_precede(KernelId a, KernelId b) const noexcept;

  /// True iff some pair in the group has an execution-order constraint —
  /// i.e. fusing the group requires barriers ("complex fusion", §II-D.2).
  bool has_internal_precedence(std::span<const KernelId> group) const;

  /// Constraint (1.3): the group is path-closed under the precedence DAG.
  /// Word-parallel: convex iff (descendants of the members) AND (ancestors
  /// of the members) lies inside the group's mask. Throws on an id out of
  /// range; allocates nothing once the calling thread's scratch is warm.
  bool group_is_convex(std::span<const KernelId> group) const;

  /// Kernels strictly between a and b on some path (empty when none).
  std::vector<KernelId> kernels_between(KernelId a, KernelId b) const;

  /// A topological order of the kernels (deterministic).
  std::vector<KernelId> topological_order() const;

  /// Graphviz rendering of the transitive reduction (Fig.-2 style).
  std::string to_dot(const Program& program) const;

 private:
  Dag dag_;
  BitMatrix reach_;      // reach_.get(a, b): path a -> b exists
  BitMatrix ancestors_;  // ancestors_.get(b, a): path a -> b exists
};

}  // namespace kf
