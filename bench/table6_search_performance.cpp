// Table VI — performance and parameters of the search algorithm on the two
// applications, plus the §III-A / §VI-C scalability commentary (search-space
// size and the cost of code-representation-based objectives).
#include <cmath>

#include "bench_common.hpp"

namespace {

// log10 of the Bell number (size of the unconstrained partition space) via
// Dobinski-style recurrence on log-scaled Bell triangle.
double log10_bell(int n) {
  std::vector<double> prev{0.0};  // log10 B(1) row start
  for (int row = 1; row < n; ++row) {
    std::vector<double> next;
    next.reserve(prev.size() + 1);
    next.push_back(prev.back());
    for (double v : prev) {
      // log10(a + b) with a = next.back(), b = v
      const double hi = std::max(next.back(), v);
      const double lo = std::min(next.back(), v);
      next.push_back(hi + std::log10(1.0 + std::pow(10.0, lo - hi)));
    }
    prev = std::move(next);
  }
  return prev.back();
}

}  // namespace

int main() {
  using namespace kf;
  const bool small = bench::small_scale();
  bench::print_header("Table VI: Performance & parameters of the search algorithm",
                      "paper Table VI and the §III-A scalability estimates");

  TextTable table({"Application", "Generations", "Population", "Evaluations",
                   "Model evals (cache misses)", "Runtime", "Projected speedup"});

  struct AppCase {
    const char* name;
    Program program;
    int max_generations;
  };
  AppCase cases[] = {{"SCALE-LES", scale_les(), small ? 150 : 2000},
                     {"HOMME", homme(), small ? 100 : 1000}};

  const int population = 100;
  double runtime_s = 0.0;
  long evaluations = 0;
  for (const AppCase& c : cases) {
    const PlanContext ctx(c.program, DeviceSpec::k20x());
    // Stall limit = generation cap: run the full budget, as the paper did.
    const SearchResult r = bench::hgga_search(ctx, population, c.max_generations,
                                              c.max_generations, 0x5ca1e);
    table.add(c.name, r.generations, population,
              strprintf("%.1fe6", static_cast<double>(r.evaluations) / 1e6),
              strprintf("%.2fe6", static_cast<double>(r.model_evaluations) / 1e6),
              human_time(r.runtime_s), fixed(r.projected_speedup(), 2) + "x");
    runtime_s += r.runtime_s;
    evaluations += r.evaluations;
  }
  std::cout << table;

  std::cout << "\nPaper: SCALE-LES 2000 generations, population 100, 5.4e6\n"
               "evaluations, 9.51 min; HOMME 1000 generations, 2.7e6\n"
               "evaluations, 6.11 min (Xeon X5670, 8 cores).\n";

  // §III-A: size of the unconstrained search space.
  std::cout << "\nSearch-space size (unconstrained set partitions):\n"
            << "  SCALE-LES (142 kernels): ~1e" << fixed(log10_bell(142), 0)
            << " partitions (paper estimates ~2.6e45 *feasible* solutions)\n"
            << "  HOMME (43 kernels):      ~1e" << fixed(log10_bell(43), 0)
            << " partitions\n";

  // §VI-C: cost of a code-representation objective (GROPHECY's MWP model
  // at 3 ms per evaluation) vs. this codeless objective.
  std::cout << "\nObjective-cost comparison (the paper's GROPHECY argument):\n"
               "  a 3 ms code-skeleton evaluation x 5.4e6 evaluations = 4.5 h\n"
               "  for *one* search run — and 2.1e39 hours for exhaustive\n"
               "  enumeration. The searches above took "
            << human_time(runtime_s / static_cast<double>(evaluations))
            << " per evaluation\n"
               "  (whole-search wall time over evaluations), which is what\n"
               "  makes population-based search feasible at 142 kernels.\n";
  return 0;
}
