// Quickstart: describe a small stencil program, search for the best kernel
// fusion, apply it, verify it, and report the simulated speedup.
//
//   $ ./quickstart
//
// This walks the full pipeline on the paper's Fig. 3 motivating example.
#include <iostream>

#include "kf.hpp"

int main() {
  using namespace kf;

  // 1. A program: five CUDA-style stencil kernels over 3D arrays.
  const Program program = motivating_example(GridDims{512, 256, 32});
  std::cout << "Program '" << program.name() << "': " << program.num_kernels()
            << " kernels, " << program.num_arrays() << " arrays\n\n";

  // 2. The analysis stack for the target device: relax expandable
  //    read-write arrays (none in this example, but it is part of the
  //    standard pipeline), then build the legality checker, timing
  //    simulator, projection model and objective over the result.
  const PlanContext ctx(program, DeviceSpec::k20x());
  const ExpansionResult& expansion = ctx.expansion;

  // 3. Search for the best fusion plan with the HGGA.
  HggaConfig config;
  config.population = 40;
  config.max_generations = 100;
  config.stall_generations = 30;
  const SearchResult result = Hgga(ctx.objective, config).run();

  std::cout << "Search: " << result.generations << " generations, "
            << result.evaluations << " objective evaluations in "
            << human_time(result.runtime_s) << "\n";
  std::cout << "Best plan: " << result.best.to_string() << "\n";
  std::cout << "Projected cost: " << human_time(result.best_cost_s) << " vs baseline "
            << human_time(result.baseline_cost_s) << " (projected speedup "
            << fixed(result.projected_speedup(), 2) << "x)\n\n";

  // 4. Apply the plan and verify functional equivalence bit-for-bit.
  const FusedProgram fused = apply_fusion(ctx.checker, result.best);
  const EquivalenceReport report = verify_fusion(program, fused, &expansion);
  std::cout << "Fused program has " << fused.num_new_kernels() << " kernels; "
            << "functional equivalence: " << (report.equivalent ? "PASS" : "FAIL")
            << " (max |diff| " << report.max_abs_diff << ")\n";

  // 5. Measure (simulate) the real effect.
  const double fused_time = ctx.simulated_time(result.best);
  const double original_time = ctx.simulator.program_time(expansion.program);
  std::cout << "Simulated runtime: " << human_time(original_time) << " -> "
            << human_time(fused_time) << " (speedup "
            << fixed(original_time / fused_time, 2) << "x)\n";

  // 6. Note what the search did NOT do: fusing {C, D, E} into the paper's
  //    Kernel Y is legal but unprofitable (register pressure), and the
  //    projection model steered the search away from it — the paper's §IV
  //    motivating insight, visible right here.
  const std::vector<KernelId> y{program.find_kernel("Kern_C"),
                                program.find_kernel("Kern_D"),
                                program.find_kernel("Kern_E")};
  const LaunchDescriptor y_desc = ctx.checker.builder().build(y);
  const double y_fused = ctx.simulator.run(expansion.program, y_desc).time_s;
  const double y_orig = ctx.simulator.original_sum(expansion.program, y);
  std::cout << "\n(For contrast: fusing {C, D, E} into the paper's Kernel Y would"
            << "\n run at " << human_time(y_fused) << " vs " << human_time(y_orig)
            << " unfused — a slowdown the projection model correctly rejected.)\n";
  return report.equivalent ? 0 : 1;
}
