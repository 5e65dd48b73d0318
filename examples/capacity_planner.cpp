// capacity_planner — the §VI-E.2 speculative study as a tool: how much
// would kernel fusion gain on hypothetical devices with bigger shared
// memory? Sweeps SMEM capacity, re-runs the search, and reports projected
// program speedups.
//
//   usage: capacity_planner [app]   (app: scale-les | rk18 | cloverleaf | homme)
#include <cstring>
#include <iostream>

#include "kf.hpp"

int main(int argc, char** argv) {
  using namespace kf;

  const char* app = argc > 1 ? argv[1] : "rk18";
  Program program = [&]() -> Program {
    if (std::strcmp(app, "scale-les") == 0) return scale_les();
    if (std::strcmp(app, "cloverleaf") == 0) return cloverleaf();
    if (std::strcmp(app, "homme") == 0) return homme();
    return scale_les_rk18();
  }();
  std::cout << "Capacity planning for '" << program.name() << "' ("
            << program.num_kernels() << " kernels)\n\n";

  TextTable table({"SMEM/SMX", "best cost", "projected speedup", "new kernels"});
  for (long kb : {16L, 32L, 48L, 64L, 128L, 256L}) {
    const PlanContext ctx(program, DeviceSpec::k20x().with_smem_capacity(kb * 1024));
    HggaConfig cfg;
    cfg.population = 50;
    cfg.max_generations = 150;
    cfg.stall_generations = 40;
    const SearchResult result = Hgga(ctx.objective, cfg).run();
    table.add(human_bytes(static_cast<double>(kb) * 1024), human_time(result.best_cost_s),
              fixed(result.projected_speedup(), 2),
              static_cast<long>(result.best.fused_group_count()));
  }
  std::cout << table;
  std::cout << "\n(48 KB is the real K20X; larger capacities are the paper's\n"
               "hypothetical-architecture study, §VI-E.2.)\n";
  return 0;
}
