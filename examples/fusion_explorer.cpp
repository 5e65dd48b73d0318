// fusion_explorer — CLI for exploring the search space on generated
// benchmarks. Compares HGGA, greedy, random (and exhaustive when small).
//
//   usage: fusion_explorer [kernels] [arrays] [thread_load] [seed]
//   e.g.:  ./fusion_explorer 24 48 8 7
#include <cstdlib>
#include <iostream>

#include "kf.hpp"

int main(int argc, char** argv) {
  using namespace kf;

  TestSuiteConfig cfg;
  cfg.kernels = argc > 1 ? std::atoi(argv[1]) : 20;
  cfg.arrays = argc > 2 ? std::atoi(argv[2]) : 40;
  cfg.thread_load = argc > 3 ? std::atoi(argv[3]) : 8;
  cfg.seed = argc > 4 ? static_cast<std::uint64_t>(std::atoll(argv[4])) : 7;
  cfg.grid = GridDims{512, 256, 32};

  const Program program = make_testsuite_program(cfg);
  std::cout << "Benchmark " << testsuite_id(cfg) << ": " << program.num_kernels()
            << " kernels, " << program.num_arrays() << " arrays\n";

  const ReducibleTrafficReport traffic = reducible_traffic(program);
  std::cout << "Reducible GMEM traffic bound: "
            << fixed(100 * traffic.reducible_fraction, 1) << "%\n\n";

  TextTable table({"method", "cost", "speedup", "groups", "evals", "time"});
  auto report = [&](const char* name, const SearchResult& r) {
    table.add(name, human_time(r.best_cost_s),
              fixed(r.baseline_cost_s / r.best_cost_s, 3),
              static_cast<long>(r.best.num_groups()), r.evaluations,
              human_time(r.runtime_s));
  };

  // A fresh context per method, so each starts from a cold group-cost cache.
  {
    const PlanContext ctx(program, DeviceSpec::k20x());
    HggaConfig hcfg;
    hcfg.population = 60;
    hcfg.max_generations = 250;
    hcfg.stall_generations = 60;
    hcfg.seed = cfg.seed;
    report("hgga", Hgga(ctx.objective, hcfg).run());
  }
  {
    const PlanContext ctx(program, DeviceSpec::k20x());
    report("greedy", greedy_search(ctx.objective));
  }
  {
    const PlanContext ctx(program, DeviceSpec::k20x());
    RandomSearchConfig rcfg;
    rcfg.samples = 2000;
    rcfg.seed = cfg.seed;
    report("random", random_search(ctx.objective, rcfg));
  }
  if (program.num_kernels() <= 11) {
    const PlanContext ctx(program, DeviceSpec::k20x());
    report("exhaustive", exhaustive_search(ctx.objective));
  }

  std::cout << table;
  return 0;
}
