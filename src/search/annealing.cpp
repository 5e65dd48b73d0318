#include "search/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "search/driver.hpp"
#include "search/population.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace kf {
namespace {

/// One random legality-preserving move; returns false when no move applied.
bool random_move(const LegalityChecker& checker, FusionPlan& plan, Rng& rng) {
  const int kind = static_cast<int>(rng.next_below(3));
  if (kind == 0 && plan.num_groups() >= 2) {
    // merge two sharing-connected groups
    const KernelId k = static_cast<KernelId>(
        rng.next_below(static_cast<std::uint64_t>(plan.num_kernels())));
    const auto& neighbours = checker.sharing().neighbours(k);
    if (neighbours.empty()) return false;
    const KernelId other = neighbours[rng.next_below(neighbours.size())];
    const int ga = plan.group_of(k);
    const int gb = plan.group_of(other);
    if (ga == gb) return false;
    std::vector<KernelId> merged(plan.group(ga).begin(), plan.group(ga).end());
    merged.insert(merged.end(), plan.group(gb).begin(), plan.group(gb).end());
    if (!checker.group_is_legal(merged) || !checker.merge_is_schedulable(plan, ga, gb))
      return false;
    plan.merge_groups(ga, gb);
    return true;
  }
  if (kind == 1) {
    // split a fused group
    std::vector<int> fused;
    for (int g = 0; g < plan.num_groups(); ++g) {
      if (plan.group(g).size() >= 2) fused.push_back(g);
    }
    if (fused.empty()) return false;
    plan.split_group(fused[rng.next_below(fused.size())]);
    return true;
  }
  // move one kernel next to a sharing neighbour
  const KernelId k = static_cast<KernelId>(
      rng.next_below(static_cast<std::uint64_t>(plan.num_kernels())));
  const auto& neighbours = checker.sharing().neighbours(k);
  if (neighbours.empty()) return false;
  const KernelId other = neighbours[rng.next_below(neighbours.size())];
  const int from = plan.group_of(k);
  const int to = plan.group_of(other);
  if (from == to) return false;
  std::vector<KernelId> target(plan.group(to).begin(), plan.group(to).end());
  target.push_back(k);
  std::sort(target.begin(), target.end());
  if (!checker.group_is_legal(target)) return false;
  FusionPlan trial = plan;
  trial.move_kernel(k, to);
  if (repair_plan(checker, trial) > 0 && !checker.plan_is_legal(trial)) return false;
  plan = std::move(trial);
  return true;
}

}  // namespace

SearchResult annealing_search(const Objective& objective, AnnealingConfig config,
                              SearchControl* control) {
  KF_REQUIRE(config.iterations > 0, "need a positive iteration budget");
  KF_REQUIRE(config.cooling > 0.0 && config.cooling < 1.0, "cooling in (0,1)");
  Stopwatch watch;
  Rng rng(config.seed);
  const LegalityChecker& checker = objective.checker();

  SearchResult result;
  result.baseline_cost_s = objective.baseline_cost();

  FusionPlan current = random_legal_plan(checker, rng, config.init_aggressiveness);
  double current_cost = objective.plan_cost(current);
  result.best = current;
  result.best_cost_s = current_cost;
  result.time_to_best_s = watch.elapsed_s();
  if (control != nullptr) control->note_best(result.best, result.best_cost_s);

  double temperature = result.baseline_cost_s * config.initial_temperature_fraction;
  const long cool_every = std::max<long>(1, config.iterations / 100);

  for (long it = 0; it < config.iterations; ++it) {
    if (control != nullptr && control->should_stop()) break;
    FusionPlan candidate = current;
    Rng stream = rng.split();
    if (!random_move(checker, candidate, stream)) continue;
    const double cost = objective.plan_cost(candidate);
    const double delta = cost - current_cost;
    if (delta <= 0.0 ||
        rng.next_double() < std::exp(-delta / std::max(temperature, 1e-18))) {
      current = std::move(candidate);
      current_cost = cost;
      if (cost < result.best_cost_s) {
        result.best = current;
        result.best_cost_s = cost;
        result.time_to_best_s = watch.elapsed_s();
        if (control != nullptr) control->note_best(result.best, result.best_cost_s);
      }
    }
    if ((it + 1) % cool_every == 0) temperature *= config.cooling;
  }

  result.best.canonicalize();
  result.evaluations = objective.evaluations();
  result.model_evaluations = objective.model_evaluations();
  result.runtime_s = watch.elapsed_s();
  fill_fault_report(result, objective, control);
  return result;
}

}  // namespace kf
