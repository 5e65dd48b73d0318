#include "search/exhaustive.hpp"

#include <algorithm>

#include "search/driver.hpp"
#include "util/error.hpp"

namespace kf {
namespace {

class Enumerator {
 public:
  Enumerator(const Objective& objective, SearchControl* control)
      : objective_(objective),
        checker_(objective.checker()),
        control_(control),
        n_(checker_.program().num_kernels()) {}

  SearchResult run() {
    const SearchEpilogue epilogue(objective_);
    groups_.clear();
    best_cost_ = std::numeric_limits<double>::infinity();
    partitions_ = 0;
    stopped_ = false;
    recurse(0);
    // An early stop may land before any complete partition; the identity
    // plan is the legal fallback then.
    if (best_cost_ == std::numeric_limits<double>::infinity()) {
      KF_CHECK(stopped_, "no legal partition found (identity should always be legal)");
      best_groups_.clear();
      for (KernelId k = 0; k < n_; ++k) best_groups_.push_back({k});
      best_cost_ = objective_.baseline_cost();
    }

    SearchResult result;
    result.best = FusionPlan::from_groups(n_, best_groups_);
    result.best_cost_s = best_cost_;
    result.time_to_best_s = epilogue.elapsed_s();
    result = epilogue.finish(std::move(result), control_);
    result.evaluations = partitions_;
    return result;
  }

 private:
  const Objective& objective_;
  const LegalityChecker& checker_;
  SearchControl* control_;
  int n_;

  std::vector<std::vector<KernelId>> groups_;
  std::vector<std::vector<KernelId>> best_groups_;
  double best_cost_ = 0.0;
  long partitions_ = 0;
  bool stopped_ = false;

  // No branch-and-bound here: a group's final cost can drop below the sum
  // of its members' singleton times, so partial costs do not lower-bound
  // completions. Legality of complete partitions prunes instead.
  void recurse(KernelId next) {
    if (stopped_) return;
    if (next == n_) {
      if (control_ != nullptr && control_->should_stop()) {
        stopped_ = true;
        return;
      }
      ++partitions_;
      KF_CHECK(partitions_ <= kExhaustiveMaxPartitions,
               "partition budget exhausted — problem too large for exhaustive search");
      // Full legality on the complete partition.
      for (const auto& g : groups_) {
        if (g.size() >= 2 && !checker_.group_is_legal(g)) return;
      }
      if (!checker_.plan_is_schedulable(FusionPlan::from_groups(n_, groups_))) {
        return;
      }
      double cost = 0.0;
      for (const auto& g : groups_) cost += objective_.group_cost(g).cost_s;
      if (cost < best_cost_) {
        best_cost_ = cost;
        best_groups_ = groups_;
        if (control_ != nullptr) {
          control_->note_best(FusionPlan::from_groups(n_, best_groups_), best_cost_);
        }
      }
      return;
    }
    // Join an existing group. No kinship pruning here: a group that is
    // disconnected now can still be bridged by a higher-indexed kernel
    // added later (e.g. {C, D} bridged by E), so filtering on direct
    // sharing would silently drop legal partitions. Connectivity is part
    // of the full legality check on complete partitions.
    // Index loop: deeper recursion pushes/pops trailing groups, so
    // references into groups_ would dangle but indices below `count` stay
    // valid.
    const std::size_t count = groups_.size();
    for (std::size_t gi = 0; gi < count; ++gi) {
      groups_[gi].push_back(next);
      recurse(next + 1);
      groups_[gi].pop_back();
    }
    // Or start a fresh group.
    groups_.push_back({next});
    recurse(next + 1);
    groups_.pop_back();
  }
};

}  // namespace

SearchResult exhaustive_search(const Objective& objective, SearchControl* control) {
  const int n = objective.checker().program().num_kernels();
  KF_REQUIRE(n <= kExhaustiveMaxKernels,
             "exhaustive search limited to " << kExhaustiveMaxKernels << " kernels, got " << n);
  Enumerator e(objective, control);
  return e.run();
}

}  // namespace kf
