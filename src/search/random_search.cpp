#include "search/random_search.hpp"

#include "search/driver.hpp"
#include "search/population.hpp"

namespace kf {
namespace {

/// Each sample merges each kernel with a probability drawn from [0.2, this).
constexpr double kMaxAggressiveness = 0.8;

}  // namespace

SearchResult random_search(const Objective& objective, RandomSearchConfig config,
                           SearchControl* control) {
  const SearchEpilogue epilogue(objective);
  Rng rng(config.seed);

  SearchResult result;
  result.best = FusionPlan(objective.checker().program().num_kernels());
  result.best_cost_s = objective.plan_cost(result.best);
  result.time_to_best_s = 0.0;
  if (control != nullptr) control->note_best(result.best, result.best_cost_s);

  for (long i = 0; i < config.samples; ++i) {
    if (control != nullptr && control->should_stop()) break;
    Rng stream = rng.split();
    FusionPlan plan = random_legal_plan(objective.checker(), stream,
                                        stream.next_double(0.2, kMaxAggressiveness));
    const double cost = objective.plan_cost(plan);
    if (cost < result.best_cost_s) {
      result.best_cost_s = cost;
      result.best = std::move(plan);
      result.time_to_best_s = epilogue.elapsed_s();
      if (control != nullptr) control->note_best(result.best, result.best_cost_s);
    }
  }
  return epilogue.finish(std::move(result), control);
}

}  // namespace kf
