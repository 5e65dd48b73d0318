#include "search/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "search/driver.hpp"
#include "search/population.hpp"
#include "util/error.hpp"

namespace kf {
namespace {

/// Initial temperature as a fraction of the baseline plan cost.
constexpr double kInitialTemperatureFraction = 0.02;
/// Geometric cooling rate applied every `iterations / 100` steps.
constexpr double kCooling = 0.93;
/// Merge probability per kernel of the random initial plan.
constexpr double kInitAggressiveness = 0.5;

}  // namespace

SearchResult annealing_search(const Objective& objective, AnnealingConfig config,
                              SearchControl* control) {
  KF_REQUIRE(config.iterations > 0, "need a positive iteration budget");
  const SearchEpilogue epilogue(objective);
  Rng rng(config.seed);
  const LegalityChecker& checker = objective.checker();

  SearchResult result;
  FusionPlan current = random_legal_plan(checker, rng, kInitAggressiveness);
  double current_cost = objective.plan_cost(current);
  result.best = current;
  result.best_cost_s = current_cost;
  result.time_to_best_s = epilogue.elapsed_s();
  if (control != nullptr) control->note_best(result.best, result.best_cost_s);

  double temperature = objective.baseline_cost() * kInitialTemperatureFraction;
  const long cool_every = std::max<long>(1, config.iterations / 100);

  FusionPlan candidate;
  std::vector<KernelId> members;
  std::vector<int> fused;
  for (long it = 0; it < config.iterations; ++it) {
    if (control != nullptr && control->should_stop()) break;
    candidate = current;
    // One random edit of the HGGA's mutation set, drawn from its own stream:
    // a merge (kind 0), a split (kind 1), or a move.
    Rng stream = rng.split();
    const auto kind = stream.next_below(3);
    KernelId k = 0;
    KernelId other = 0;
    int victim = -1;
    if (kind == 1) {
      if (!draw_fused_group(candidate, stream, fused, victim)) continue;
      candidate.split_group(victim);
    } else {
      if (!draw_neighbour_pair(checker, stream, k, other)) continue;
      const int from = candidate.group_of(k);
      const int to = candidate.group_of(other);
      if (kind == 0 && candidate.num_groups() >= 2) {
        if (!merge_is_legal(checker, candidate, from, to, members)) continue;
        candidate.merge_groups(from, to);
      } else {
        if (!move_is_legal(checker, candidate, k, to, members)) continue;
        apply_move(checker, candidate, k, to);
      }
    }
    const double cost = objective.plan_cost(candidate);
    const double delta = cost - current_cost;
    if (delta <= 0.0 ||
        rng.next_double() < std::exp(-delta / std::max(temperature, 1e-18))) {
      std::swap(current, candidate);
      current_cost = cost;
      if (cost < result.best_cost_s) {
        result.best = current;
        result.best_cost_s = cost;
        result.time_to_best_s = epilogue.elapsed_s();
        if (control != nullptr) control->note_best(result.best, result.best_cost_s);
      }
    }
    if ((it + 1) % cool_every == 0) temperature *= kCooling;
  }
  return epilogue.finish(std::move(result), control);
}

}  // namespace kf
