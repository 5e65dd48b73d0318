// Simulated-annealing baseline.
//
// A single-solution metaheuristic over the same legality-preserving move
// set as the HGGA's mutations (merge sharing-connected groups / split a
// group / move one kernel), with Metropolis acceptance and geometric
// cooling. Included as a middle ground between greedy and the HGGA in the
// solver ablation: it escapes local minima the greedy cannot, but lacks
// the group-crossover recombination the paper credits for scalability.
#pragma once

#include "search/hgga.hpp"
#include "search/objective.hpp"

namespace kf {

/// The step budget and seed; the temperature schedule is fixed
/// (annealing.cpp): 2% of the baseline cost, cooled by 0.93 a hundred times.
struct AnnealingConfig {
  long iterations = 30'000;
  std::uint64_t seed = 0x5eed;
};

class SearchControl;  // search/driver.hpp

/// `control` (optional) enforces deadline / evaluation / fault budgets;
/// on early stop the best-so-far (always legal) plan is returned.
SearchResult annealing_search(const Objective& objective,
                              AnnealingConfig config = AnnealingConfig(),
                              SearchControl* control = nullptr);

}  // namespace kf
