// Fusing the SCALE-LES 3rd-order Runge-Kutta routine (paper Figs. 1-2).
//
// Shows the graph machinery the paper builds: the data dependency graph
// with array-usage classes, the expandable-array relaxation of QFLX/SFLX,
// the order-of-execution graph, and then the search + transformation with
// functional validation. Pass --dot to dump Graphviz sources.
#include <cstring>
#include <iostream>

#include "kf.hpp"

int main(int argc, char** argv) {
  using namespace kf;
  const bool dump_dot = argc > 1 && std::strcmp(argv[1], "--dot") == 0;

  const Program rk3 = scale_les_rk18(GridDims{1280, 32, 32});
  std::cout << "SCALE-LES RK3 routine: " << rk3.num_kernels() << " kernels, "
            << rk3.num_arrays() << " arrays\n";

  // --- dependency analysis (Fig. 1) ---
  const DependencyGraph deps = DependencyGraph::build(rk3);
  const auto hist = deps.usage_histogram();
  std::cout << "Array usage: " << hist[0] << " read-only, " << hist[2]
            << " read-write, " << hist[3] << " expandable, " << hist[1]
            << " write-only\n";
  if (dump_dot) std::cout << deps.to_dot(rk3) << "\n";

  // --- expandable-array relaxation, and the analysis stack on K20X ---
  const PlanContext ctx(rk3, DeviceSpec::k20x());
  const ExpansionResult& expansion = ctx.expansion;
  std::cout << "Expansion added " << expansion.arrays_added
            << " redundant arrays (" << human_bytes(expansion.extra_bytes)
            << " extra device memory)\n";

  // --- order-of-execution graph (Fig. 2) ---
  const ExecutionOrderGraph order = ExecutionOrderGraph::build(expansion.program);
  std::cout << "Order-of-execution graph: " << order.dag().num_edges()
            << " precedence edges\n";
  if (dump_dot) std::cout << order.to_dot(expansion.program) << "\n";

  // --- search on K20X ---
  HggaConfig config;
  config.population = 60;
  config.max_generations = 200;
  config.stall_generations = 50;
  const SearchResult result = Hgga(ctx.objective, config).run();

  std::cout << "\nBest fusion: " << rk3.num_kernels() << " kernels -> "
            << result.best.num_groups() << " launches ("
            << result.best.fused_kernel_count() << " kernels fused into "
            << result.best.fused_group_count() << " new kernels)\n";

  const FusedProgram fused = apply_fusion(ctx.checker, result.best);
  TextTable table({"new kernel", "members", "projected", "measured", "original sum"});
  for (int j = 0; j < fused.num_new_kernels(); ++j) {
    const LaunchDescriptor& d = fused.launches[static_cast<std::size_t>(j)];
    if (!d.is_fused()) continue;
    const double projected = ctx.model->project(expansion.program, d).time_s;
    const double measured = ctx.simulator.run(expansion.program, d).time_s;
    const double original = ctx.simulator.original_sum(expansion.program, d.members);
    table.add(d.name, static_cast<long>(d.members.size()), human_time(projected),
              human_time(measured), human_time(original));
  }
  std::cout << table;

  const EquivalenceReport report = verify_fusion(rk3, fused, &expansion);
  const double before = ctx.simulator.program_time(expansion.program);
  const double after = ctx.simulated_time(result.best);
  std::cout << "\nRoutine runtime " << human_time(before) << " -> " << human_time(after)
            << " (speedup " << fixed(before / after, 2) << "x); equivalence "
            << (report.equivalent ? "PASS" : "FAIL") << "\n";
  return report.equivalent ? 0 : 1;
}
