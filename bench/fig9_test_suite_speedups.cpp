// Fig. 9 — test-suite speedups after fusion (thread load 8) on Kepler
// (K20X) and Maxwell (GTX 750 Ti), sweeping kernel and array counts.
//
// Paper shape checks: Maxwell gains more than Kepler (64 KB SMEM admits
// larger new kernels and more complex fusions); fewer arrays enforce a
// stricter execution order and depress speedups, most visibly at low
// kernel counts and least on Maxwell.
#include "bench_common.hpp"

int main() {
  using namespace kf;
  const bool small = bench::small_scale();
  bench::print_header("Fig. 9: Test-suite speedups after fusion (thread load = 8)",
                      "paper Fig. 9");

  TextTable table({"kernels", "arrays/kernel", "K20X speedup", "GTX750Ti speedup"});
  RunningStats kepler;
  RunningStats maxwell;
  const int max_kernels = small ? 40 : 60;
  for (int kernels = 20; kernels <= max_kernels; kernels += 10) {
    for (const double arrays_per_kernel : {1.0, 2.0}) {
      TestSuiteConfig cfg;
      cfg.kernels = kernels;
      cfg.arrays = std::max(8, static_cast<int>(kernels * arrays_per_kernel));
      cfg.thread_load = 8;
      cfg.seed = 4200 + static_cast<std::uint64_t>(kernels * 10 + arrays_per_kernel);
      cfg.grid = GridDims{512, 256, 32};
      const Program program = make_testsuite_program(cfg);

      double speedup[2] = {0, 0};
      int idx = 0;
      for (const DeviceSpec& device : {DeviceSpec::k20x(), DeviceSpec::gtx750ti()}) {
        // Maxwell runs in single precision, as in the paper (§IV).
        const PlanContext ctx(
            device.name == "GTX750Ti" ? program.with_precision(4) : program, device);
        const SearchResult result =
            bench::hgga_search(ctx, 60, small ? 100 : 250, small ? 30 : 70, cfg.seed);
        const double before = ctx.simulator.program_time(ctx.expansion.program);
        const double after = ctx.simulated_time(result.best);
        speedup[idx++] = before / after;
      }
      kepler.add(speedup[0]);
      maxwell.add(speedup[1]);
      table.add(kernels, fixed(arrays_per_kernel, 0), fixed(speedup[0], 2) + "x",
                fixed(speedup[1], 2) + "x");
    }
  }
  std::cout << table;
  std::cout << "\nMean speedup: K20X " << fixed(kepler.mean(), 2) << "x, GTX750Ti "
            << fixed(maxwell.mean(), 2) << "x\n"
            << "Shape check (paper Fig. 9): Maxwell > Kepler on average; the\n"
               "1 array/kernel column (stricter order-of-execution) trails\n"
               "the 2 arrays/kernel column.\n";
  return 0;
}
