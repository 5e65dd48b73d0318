// Ablation — the expandable-array relaxation (§II-B.1c): what do the
// redundant arrays buy, and at what memory cost?
//
// The relaxation removes WAR/WAW precedences (Fig. 1's QFLX example), so
// the primary effect is on the *order-of-execution graph* and on how many
// kernel pairs become fusible; whether that converts into end-to-end
// speedup depends on whether those precedences were binding for the best
// plans. Reported per workload: precedence-edge count and pairwise
// fusibility with/without expansion, the reducible-traffic bound, the
// realised speedup, and the extra device memory (the cost the paper
// flags).
#include "bench_common.hpp"

namespace {

/// Number of 2-kernel groups that are legal and schedulable.
long fusible_pairs(const kf::LegalityChecker& checker) {
  using namespace kf;
  const int n = checker.program().num_kernels();
  long count = 0;
  for (KernelId a = 0; a < n; ++a) {
    for (KernelId b = a + 1; b < n; ++b) {
      const std::vector<KernelId> pair{a, b};
      if (checker.check_group(pair) != LegalityVerdict::Ok) continue;
      FusionPlan plan(n);
      plan.merge_groups(plan.group_of(a), plan.group_of(b));
      if (checker.plan_is_schedulable(plan)) ++count;
    }
  }
  return count;
}

}  // namespace

int main() {
  using namespace kf;
  const bool small = bench::small_scale();
  bench::print_header("Ablation: expandable-array relaxation on/off",
                      "§II-B.1c and the Fig. 1 QFLX example");

  TextTable table({"workload", "expansion", "precedence edges", "fusible pairs",
                   "reducible bound", "measured speedup", "extra memory"});

  struct Load {
    std::string name;
    Program program;
  };
  std::vector<Load> loads;
  loads.push_back({"rk18", scale_les_rk18()});
  loads.push_back({"cloverleaf", cloverleaf()});
  loads.push_back({"scale-les(142)", scale_les()});

  for (const Load& load : loads) {
    for (const bool expand : {false, true}) {
      // Budget 0 is no expansion; negative is unlimited.
      const PlanContext ctx(load.program, DeviceSpec::k20x(), expand ? -1.0 : 0.0);
      const ReducibleTrafficReport bound = reducible_traffic(load.program, expand);
      const SearchResult result =
          bench::hgga_search(ctx, 60, small ? 100 : 300, small ? 35 : 90, 0xe4a);
      const double measured = ctx.simulated_time(result.best);
      const double baseline = ctx.simulator.program_time(ctx.expansion.program);
      table.add(load.name, expand ? "on" : "off",
                static_cast<long>(ctx.checker.execution_order().dag().num_edges()),
                fusible_pairs(ctx.checker),
                fixed(100 * bound.reducible_fraction, 1) + "%",
                fixed(baseline / measured, 2) + "x",
                human_bytes(ctx.expansion.extra_bytes));
    }
  }
  std::cout << table;
  std::cout << "\nShape check: expansion strictly removes precedence edges and\n"
               "typically grows the fusible-pair set (readers of different\n"
               "write generations correctly stop counting as data-sharing) and\n"
               "weakly grows the reducible bound.\n"
               "For these workloads the WAR/WAW precedences are rarely the\n"
               "binding constraint on the *best* plan — convex groups may\n"
               "contain internal precedences anyway — so the realised speedup\n"
               "moves little while the memory bill (one redundant array per\n"
               "extra write generation) is substantial. The paper pays it to\n"
               "keep the search space permutation-friendly.\n";
  return 0;
}
