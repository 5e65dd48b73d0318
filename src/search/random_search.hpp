// Random restart baseline: sample random legal plans, keep the best.
// Shares the HGGA's initial-population generator, so the comparison
// isolates the value of the evolutionary operators.
#pragma once

#include "search/hgga.hpp"
#include "search/objective.hpp"

namespace kf {

struct RandomSearchConfig {
  long samples = 10'000;
  std::uint64_t seed = 0x5eed;
};

class SearchControl;  // search/driver.hpp

/// `control` (optional) enforces deadline / evaluation / fault budgets;
/// on early stop the best-so-far (always legal) plan is returned.
SearchResult random_search(const Objective& objective,
                           RandomSearchConfig config = RandomSearchConfig(),
                           SearchControl* control = nullptr);

}  // namespace kf
