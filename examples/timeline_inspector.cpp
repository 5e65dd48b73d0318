// timeline_inspector — search a workload, then inspect the fused program's
// execution schedule with the discrete-event block simulator: per-launch
// durations, device utilisation, tail effects, and an optional Chrome-trace
// JSON (open in chrome://tracing or Perfetto).
//
//   usage: timeline_inspector [app] [trace.json]
//   apps:  rk18 | cloverleaf | swe | fig3
#include <cstring>
#include <fstream>
#include <iostream>

#include "kf.hpp"

int main(int argc, char** argv) {
  using namespace kf;
  const char* app = argc > 1 ? argv[1] : "swe";
  const char* trace_path = argc > 2 ? argv[2] : nullptr;

  Program program = [&]() -> Program {
    if (std::strcmp(app, "rk18") == 0) return scale_les_rk18();
    if (std::strcmp(app, "cloverleaf") == 0) return cloverleaf();
    if (std::strcmp(app, "fig3") == 0) return motivating_example();
    return shallow_water();
  }();
  std::cout << "Inspecting '" << program.name() << "' (" << program.num_kernels()
            << " kernels)\n";

  // Tune the launch shape first, then search on the tuned program.
  const DeviceSpec device = DeviceSpec::k20x();
  const LaunchTunerResult tuned = tune_launch_config(program, device);
  program.set_launch(tuned.best);
  std::cout << "Tuned launch: " << tuned.best.block_x << "x" << tuned.best.block_y
            << " (" << human_time(tuned.best_time_s) << " unfused)\n";

  const PlanContext ctx(program, device);
  const Program& expanded = ctx.expansion.program;
  HggaConfig config;
  config.population = 50;
  config.max_generations = 150;
  config.stall_generations = 45;
  const SearchResult result = Hgga(ctx.objective, config).run();
  const FusedProgram fused = apply_fusion(ctx.checker, result.best);

  // Event-level schedules, before and after fusion.
  const EventSimulator events(device);
  std::vector<LaunchDescriptor> original_launches;
  for (KernelId k = 0; k < expanded.num_kernels(); ++k) {
    original_launches.push_back(descriptor_for_original(expanded, k));
  }
  const EventTrace before = events.run_sequence(expanded, original_launches);
  const EventTrace after = events.run_sequence(expanded, fused.launches);

  TextTable table({"launch", "blocks/SMX", "duration", "share"});
  for (const LaunchTimeline& t : after.launches) {
    table.add(t.name.substr(0, 48), t.occupancy.blocks_per_smx,
              human_time(t.duration_s()),
              fixed(100 * t.duration_s() / after.makespan_s, 1) + "%");
  }
  std::cout << "\nFused schedule:\n" << table;

  std::cout << "\nMakespan " << human_time(before.makespan_s) << " -> "
            << human_time(after.makespan_s) << " (speedup "
            << fixed(before.makespan_s / after.makespan_s, 2) << "x); "
            << "utilisation " << fixed(100 * before.utilisation(device), 1) << "% -> "
            << fixed(100 * after.utilisation(device), 1) << "%\n";

  if (trace_path != nullptr) {
    std::ofstream out(trace_path);
    out << after.to_chrome_trace_json();
    std::cout << "Chrome trace written to " << trace_path << "\n";
    const std::string svg_path = std::string(trace_path) + ".svg";
    std::ofstream svg(svg_path);
    svg << after.to_svg();
    std::cout << "SVG Gantt written to " << svg_path << "\n";
  }
  return 0;
}
