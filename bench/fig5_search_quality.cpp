// Fig. 5 — search-heuristic quality and runtime on the CloverLeaf test
// suite (Table V):
//   (a) percentage of runs that find the optimal solution (verified by the
//       deterministic exhaustive search) on small benchmarks, sweeping
//       thread load and sharing-set cardinality;
//   (b) wall time to the best solution for the largest benchmarks.
#include "bench_common.hpp"

namespace {

kf::TestSuiteConfig suite(int kernels, int arrays, int load, int sharing,
                          std::uint64_t seed) {
  kf::TestSuiteConfig cfg;
  cfg.kernels = kernels;
  cfg.arrays = arrays;
  cfg.thread_load = load;
  cfg.sharing_set_size = sharing;
  cfg.seed = seed;
  cfg.grid = kf::GridDims{512, 256, 32};
  return cfg;
}

}  // namespace

int main() {
  using namespace kf;
  const bool small = bench::small_scale();
  bench::print_header("Fig. 5: Search-heuristic quality and time-to-best",
                      "paper Fig. 5a / 5b, Table V suite");

  std::cout << "\nTable V attribute ranges: kernels 10..100 (step 10), arrays\n"
               "20..200 (step 20), data copies 2..10, sharing set 2..8,\n"
               "thread load 4..12, kinship 2..5.\n";

  // ---- (a) % best solutions on small benchmarks ----
  std::cout << "\n(a) Percentage of runs finding the exhaustive optimum\n"
               "    (10 HGGA runs per benchmark, 9-kernel instances):\n\n";
  TextTable quality({"thread load", "sharing set", "optimum found", "avg gap"});
  const int runs = small ? 3 : 10;
  for (int load : {4, 8, 12}) {
    for (int sharing : {2, 4, 6, 8}) {
      const TestSuiteConfig cfg = suite(9, 18, load, sharing, 1000 + load * 10 + sharing);
      const Program program = make_testsuite_program(cfg);
      const PlanContext truth_ctx(program, DeviceSpec::k20x());
      const SearchResult truth = exhaustive_search(truth_ctx.objective);

      int hits = 0;
      RunningStats gap;
      for (int r = 0; r < runs; ++r) {
        const PlanContext ctx(program, DeviceSpec::k20x());
        const SearchResult found = bench::hgga_search(
            ctx, small ? 60 : 100, small ? 150 : 400, small ? 40 : 120,
            7000 + static_cast<std::uint64_t>(r) * 131 + load);
        // 1e-6 relative tolerance absorbs float summation-order noise
        if (found.best_cost_s <= truth.best_cost_s * (1.0 + 1e-6)) ++hits;
        gap.add(found.best_cost_s / truth.best_cost_s - 1.0);
      }
      quality.add(load, sharing,
                  fixed(100.0 * hits / runs, 0) + "%",
                  fixed(100.0 * gap.mean(), 2) + "%");
    }
  }
  std::cout << quality;
  std::cout << "\nPaper Fig. 5a: 95-100% of runs find the best solution.\n";

  // ---- (b) time to best solution on the largest benchmarks ----
  std::cout << "\n(b) Time to best solution (largest suite benchmarks):\n\n";
  TextTable timing({"kernels", "arrays", "time to best", "total time",
                    "generations", "evaluations"});
  const int max_kernels = small ? 40 : 100;
  for (int kernels = 20; kernels <= max_kernels; kernels += 20) {
    const TestSuiteConfig cfg = suite(kernels, 2 * kernels, 8, 4, 500 + kernels);
    const PlanContext ctx(make_testsuite_program(cfg), DeviceSpec::k20x());
    const SearchResult result =
        bench::hgga_search(ctx, 100, small ? 120 : 400, small ? 40 : 120, 99);
    timing.add(kernels, 2 * kernels, human_time(result.time_to_best_s),
               human_time(result.runtime_s), result.generations, result.evaluations);
  }
  std::cout << timing;
  std::cout << "\nShape check: time-to-best grows superlinearly with kernel count\n"
               "but stays in interactive range (the paper reports minutes at\n"
               "142 kernels on a 2010 Xeon; see table6_search_performance).\n";
  return 0;
}
