// §VI-A / §VI-B.2 — the weak-scaling carry-over claim: "a decrease in
// runtime for a single node would yield almost the same decrease in
// runtime when using multiple nodes (assuming overlapped computation and
// communication)".
//
// For SCALE-LES and HOMME we project per-step times at 1..256 nodes (weak
// scaling, paper-testbed interconnect) before and after fusion and report
// the speedup retention at scale — plus the point at which the assumption
// breaks (communication no longer hidden by the *shorter* fused compute).
#include "bench_common.hpp"

int main() {
  using namespace kf;
  const bool small = bench::small_scale();
  bench::print_header("Weak scaling: does the single-node speedup carry over?",
                      "the §VI-A / §VI-B.2 weak-scaling argument");

  const std::vector<int> nodes{1, 4, 16, 64, 256};
  const NetworkSpec network = NetworkSpec::tsubame2();

  struct AppCase {
    const char* name;
    Program program;
  };
  AppCase cases[] = {{"SCALE-LES", scale_les()}, {"HOMME", homme()}};

  for (const AppCase& c : cases) {
    const PlanContext ctx(c.program, DeviceSpec::k20x());
    const Program& expanded = ctx.expansion.program;
    const SearchResult result =
        bench::hgga_search(ctx, 100, small ? 120 : 400, small ? 40 : 120, 0x5ca1e);
    const double before_s = ctx.simulator.program_time(expanded);
    const double after_s = ctx.simulated_time(result.best);

    const WeakScalingProjection before =
        project_weak_scaling(expanded, before_s, network, nodes);
    const WeakScalingProjection after =
        project_weak_scaling(expanded, after_s, network, nodes);

    std::cout << "\n--- " << c.name << " (single-node speedup "
              << fixed(before_s / after_s, 2) << "x) ---\n\n";
    TextTable table({"nodes", "comm/step", "step (unfused)", "step (fused)",
                     "speedup", "efficiency (fused)"});
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const WeakScalingPoint& b = before.points[i];
      const WeakScalingPoint& a = after.points[i];
      table.add(b.nodes, human_time(a.comm_s), human_time(b.step_s),
                human_time(a.step_s), fixed(b.step_s / a.step_s, 2) + "x",
                fixed(100 * a.efficiency, 1) + "%");
    }
    std::cout << table;
    std::cout << "\nSpeedup retention at " << nodes.back() << " nodes: "
              << fixed(100 * WeakScalingProjection::speedup_retention(before, after), 1)
              << "% of the single-node speedup\n";
  }

  std::cout << "\nShape check (paper §VI): with overlapped communication the\n"
               "fusion speedup carries to scale nearly unchanged; retention\n"
               "only erodes when the fused (shorter) compute can no longer\n"
               "hide the fixed halo-exchange cost.\n";
  return 0;
}
