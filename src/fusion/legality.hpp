// Fusion legality — the constraint system of Fig. 4.
//
// A group (candidate new kernel) is legal iff
//   (1.3)  it is convex under the execution-order DAG (all kernels on any
//          internal dependence path are members), which also guarantees the
//          fused program still has a valid topological order;
//   (1.5)  its members are connected through arrays they share (degree of
//          kinship > 0 via in-group chains);
//   (1.6)  the generated kernel's SMEM footprint fits the device;
//   (1.7)  its register demand per thread stays within R_Max.
// Constraints (1.2)/(1.4) — each kernel fused exactly once — are structural
// invariants of FusionPlan. Constraint (1.1) — profitability vs. the
// original sum — is the search objective's job, not legality.
//
// Checks are ordered cheapest-first and stop at the first violation (the
// paper's active-constraint pruning). Phase, kinship and convexity are word
// operations on the group's member mask; the (1.6)/(1.7) verdict needs the
// fused kernel's descriptor, so it is computed once per member set and kept
// in a memo keyed on the exact member mask: a flat open-addressed table
// (util/flat_table.hpp) whose slots hold the mask's hash and its words
// inline, so a lookup is one probe run over contiguous slots. The hash
// picks the slot, and the mask, compared in full, decides the hit, so a
// hash collision cannot serve a wrong verdict. The memo depends only on
// this checker's program and device, is shared by every thread using the
// checker (readers take a shared lock, inserts — and the table's growth —
// an exclusive one), and holds only groups that passed the cheap checks.
// It keeps verdicts, not descriptors: a caller that prices the group next
// takes the descriptor the miss built (check_group's `built`), so a group
// checked and then priced is built once.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "fusion/fused_kernel.hpp"
#include "fusion/fusion_plan.hpp"
#include "graph/execution_order.hpp"
#include "graph/sharing.hpp"
#include "gpu/device_spec.hpp"
#include "util/flat_table.hpp"

namespace kf {

enum class LegalityVerdict {
  Ok,
  PhaseMismatch,  ///< crosses a host-transfer/communication barrier (§II-C)
  NotConnected,   ///< kinship constraint (1.5)
  NotConvex,      ///< path-closure constraint (1.3)
  SmemOverflow,   ///< capacity constraint (1.6)
  RegOverflow,    ///< register constraint (1.7)
  Unschedulable,  ///< group-contracted precedence graph has a cycle
};

const char* to_string(LegalityVerdict verdict) noexcept;

class LegalityChecker {
 public:
  /// Builds the execution-order and sharing graphs for `program` (which
  /// must outlive the checker). Pass the already-expanded program when
  /// expandable-array relaxation is wanted.
  LegalityChecker(const Program& program, DeviceSpec device,
                  FusionCostParams params = FusionCostParams());

  const Program& program() const noexcept { return program_; }
  const DeviceSpec& device() const noexcept { return device_; }
  const ExecutionOrderGraph& execution_order() const noexcept { return exec_; }
  const SharingGraph& sharing() const noexcept { return sharing_; }
  const FusedKernelBuilder& builder() const noexcept { return builder_; }

  /// Full check of one group, cheapest constraint first. Thread-safe.
  /// When `built` is non-null and the resource memo misses, the descriptor
  /// built for the (1.6)/(1.7) verdict is moved into *built; otherwise
  /// *built is left as it was. Objective::group_cost takes it from there.
  LegalityVerdict check_group(std::span<const KernelId> group,
                              LaunchDescriptor* built = nullptr) const;

  bool group_is_legal(std::span<const KernelId> group) const {
    return check_group(group) == LegalityVerdict::Ok;
  }

  /// check_group's verdict, and its descriptor hand-off, for `grown`: a
  /// legal group plus one kernel `added` that directly shares an array with
  /// one of its members (crossover's host with an orphan). `grown` must be
  /// strictly ascending and hold `added` (both checked). Kinship (1.5)
  /// cannot fail for such a group, so only the phase of `added`, convexity
  /// and the resource memo are checked.
  LegalityVerdict check_extension(std::span<const KernelId> grown, KernelId added,
                                  LaunchDescriptor* built = nullptr) const;

  /// Plan-level constraint: per-group convexity does *not* guarantee that
  /// the contracted (group-level) precedence graph is acyclic — two convex,
  /// mutually independent groups can still order-constrain each other both
  /// ways through kernels outside the pair. A plan is schedulable iff the
  /// condensation is a DAG, which is exactly what the transformer needs to
  /// emit a valid launch order.
  bool plan_is_schedulable(const FusionPlan& plan) const;

  /// Group indices stuck on condensation cycles, ascending (empty iff
  /// schedulable). Allocates only the result once the calling thread's
  /// scratch is warm.
  std::vector<int> cyclic_groups(const FusionPlan& plan) const;

  /// True iff a cycle of the group quotient is reachable from one of the
  /// `anchors` (group indices): one depth-first search from them, no
  /// allocation once the calling thread's scratch is warm. When every
  /// quotient cycle passes through an anchor — a crossover child, whose
  /// other groups are whole groups or pieces of one schedulable parent's
  /// groups — this is exactly !cyclic_groups(plan).empty().
  bool cycle_from(const FusionPlan& plan, std::span<const int> anchors) const;

  /// Schedulability of one edit to a plan that is schedulable now, decided
  /// by one forward search of the group quotient DAG from the edit's target
  /// instead of cyclic_groups on an edited copy. Merges only add quotient
  /// paths, and a move's new quotient edges all touch its target, so any
  /// cycle the edit creates passes through the target.
  ///
  /// Merging groups a and b keeps the plan schedulable iff no quotient path
  /// of length >= 2 joins them in either direction.
  bool merge_is_schedulable(const FusionPlan& plan, int a, int b) const;

  /// Moving kernel k into group `to` (k's group must differ). With
  /// `split_rest`, the rest of k's old group becomes singletons in the same
  /// edit, as repair_plan does to a rest that is no longer a legal group.
  bool move_is_schedulable(const FusionPlan& plan, KernelId k, int to,
                           bool split_rest) const;

  /// All groups legal *and* the plan schedulable?
  bool plan_is_legal(const FusionPlan& plan) const;

  /// First violating group's verdict (Ok when legal), with its index in
  /// *violating_group when non-null (-1 for the plan-level Unschedulable).
  LegalityVerdict check_plan(const FusionPlan& plan, int* violating_group = nullptr) const;

 private:
  const Program& program_;
  DeviceSpec device_;
  ExecutionOrderGraph exec_;
  SharingGraph sharing_;
  FusedKernelBuilder builder_;

  /// (1.6)/(1.7) for a group that passed the cheap checks, through the memo.
  LegalityVerdict resource_verdict(std::span<const KernelId> group,
                                   LaunchDescriptor* built) const;

  /// The search behind merge/move_is_schedulable: true iff the edited
  /// quotient has a path from the target `into` back to itself. The edit
  /// folds group `absorbed` (-1: none) or kernel `moved` (-1: none) into
  /// `into`; with `split_rest`, every other member of moved's old group is
  /// a node of its own.
  bool edit_closes_cycle(const FusionPlan& plan, int into, int absorbed,
                         KernelId moved, bool split_rest) const;

  mutable std::shared_mutex memo_mutex_;
  mutable FlatTable<LegalityVerdict> memo_;  // member mask -> verdict
};

}  // namespace kf
