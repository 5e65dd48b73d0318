#include "search/population.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace kf {

FusionPlan random_legal_plan(const LegalityChecker& checker, Rng& rng,
                             double aggressiveness) {
  const Program& program = checker.program();
  FusionPlan plan(program.num_kernels());

  std::vector<KernelId> order(static_cast<std::size_t>(program.num_kernels()));
  for (KernelId k = 0; k < program.num_kernels(); ++k) {
    order[static_cast<std::size_t>(k)] = k;
  }
  rng.shuffle(order);

  std::vector<KernelId> merged;
  for (KernelId k : order) {
    if (!rng.next_bool(aggressiveness)) continue;
    const auto& neighbours = checker.sharing().neighbours(k);
    if (neighbours.empty()) continue;
    // Try a few random neighbours; accept the first legal merge.
    const int attempts = std::min<int>(3, static_cast<int>(neighbours.size()));
    for (int t = 0; t < attempts; ++t) {
      const KernelId other = neighbours[rng.next_below(neighbours.size())];
      const int ga = plan.group_of(k);
      const int gb = plan.group_of(other);
      if (merge_is_legal(checker, plan, ga, gb, merged)) {
        plan.merge_groups(ga, gb);
        break;
      }
    }
  }
  return plan;
}

bool draw_neighbour_pair(const LegalityChecker& checker, Rng& rng, KernelId& k,
                         KernelId& other) {
  k = static_cast<KernelId>(
      rng.next_below(static_cast<std::uint64_t>(checker.program().num_kernels())));
  const auto& neighbours = checker.sharing().neighbours(k);
  if (neighbours.empty()) return false;
  other = neighbours[rng.next_below(neighbours.size())];
  return true;
}

bool draw_fused_group(const FusionPlan& plan, Rng& rng, std::vector<int>& fused, int& out) {
  fused.clear();
  for (int g = 0; g < plan.num_groups(); ++g) {
    if (plan.group(g).size() >= 2) fused.push_back(g);
  }
  if (fused.empty()) return false;
  out = fused[rng.next_below(fused.size())];
  return true;
}

bool merge_is_legal(const LegalityChecker& checker, const FusionPlan& plan, int ga, int gb,
                    std::vector<KernelId>& merged) {
  if (ga == gb) return false;
  merged.assign(plan.group(ga).begin(), plan.group(ga).end());
  merged.insert(merged.end(), plan.group(gb).begin(), plan.group(gb).end());
  return checker.group_is_legal(merged) && checker.merge_is_schedulable(plan, ga, gb);
}

bool move_is_legal(const LegalityChecker& checker, const FusionPlan& plan, KernelId k,
                   int to, std::vector<KernelId>& target) {
  if (plan.group_of(k) == to) return false;
  target.assign(plan.group(to).begin(), plan.group(to).end());
  target.push_back(k);
  std::sort(target.begin(), target.end());
  return checker.group_is_legal(target);
}

void apply_move(const LegalityChecker& checker, FusionPlan& plan, KernelId k, int to) {
  plan.move_kernel(k, to);
  repair_plan(checker, plan);
}

int repair_plan(const LegalityChecker& checker, FusionPlan& plan) {
  int repaired = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int g = 0; g < plan.num_groups(); ++g) {
      if (plan.group(g).size() >= 2 && !checker.group_is_legal(plan.group(g))) {
        plan.split_group(g);
        ++repaired;
        changed = true;
        break;  // indices shifted; rescan
      }
    }
  }
  return repaired + break_cycles(checker, plan);
}

int break_cycles(const LegalityChecker& checker, FusionPlan& plan) {
  // Plan-level: break condensation cycles by dissolving the largest fused
  // group on a cycle until the plan is schedulable.
  int repaired = 0;
  for (;;) {
    const std::vector<int> stuck = checker.cyclic_groups(plan);
    if (stuck.empty()) break;
    int victim = -1;
    std::size_t victim_size = 1;
    for (int g : stuck) {
      if (plan.group(g).size() > victim_size) {
        victim_size = plan.group(g).size();
        victim = g;
      }
    }
    KF_CHECK(victim >= 0, "cycle of singleton groups cannot exist in a DAG");
    plan.split_group(victim);
    ++repaired;
  }
  return repaired;
}

}  // namespace kf
