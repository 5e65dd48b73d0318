// Exhaustive search over all legal partitions.
//
// The deterministic ground truth the paper used to verify the HGGA on small
// test-suite benchmarks (Fig. 5a). Enumerates *every* set partition by
// recursive assignment ("restricted growth strings") and checks full
// legality on complete partitions — no structural pruning, because neither
// convexity nor connectivity is monotone under adding members (a
// higher-indexed kernel can bridge or close a group). Practical up to ~12
// kernels (Bell(12) = 4.2M partitions).
#pragma once

#include "search/objective.hpp"
#include "search/hgga.hpp"

namespace kf {

/// Largest program exhaustive_search accepts.
constexpr int kExhaustiveMaxKernels = 12;
/// Safety valve: enumeration fails past this many complete partitions.
constexpr long kExhaustiveMaxPartitions = 50'000'000;

class SearchControl;  // search/driver.hpp

/// Finds the optimal legal plan under the objective; the result's
/// `evaluations` is the number of partitions enumerated. Throws when the
/// program has more than kExhaustiveMaxKernels kernels. `control`
/// (optional) enforces deadline / evaluation / fault budgets; an early stop
/// returns the best complete partition seen so far (the identity plan when
/// none was reached yet).
SearchResult exhaustive_search(const Objective& objective, SearchControl* control = nullptr);

}  // namespace kf
