// Shared scaffolding for the bench binaries.
//
// Every bench reproduces one table/figure of the paper and prints a
// paper-style text table plus a short commentary comparing the measured
// shape against the published numbers. Benches build the standard
// analysis stack for one (program, device) pair as a PlanContext.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "kf.hpp"

namespace kf::bench {

/// KF_BENCH_SCALE=small shrinks search budgets for smoke runs.
inline bool small_scale() {
  const char* v = std::getenv("KF_BENCH_SCALE");
  return v != nullptr && std::string(v) == "small";
}

/// With KF_BENCH_METRICS_DIR set, writes `doc` to
/// $KF_BENCH_METRICS_DIR/BENCH_<name>.json so CI and sweep scripts can
/// diff bench runs without scraping the text tables; a no-op otherwise.
inline void write_bench_metrics(const std::string& name, const JsonValue& doc) {
  const char* dir = std::getenv("KF_BENCH_METRICS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/BENCH_" + name + ".json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write bench metrics to " << path << "\n";
    return;
  }
  os << doc.to_string(2) << "\n";
  std::cerr << "wrote " << path << "\n";
}

/// The standard run-metrics document for one bench search (schema
/// kf-bench-metrics/v1; a sibling of the CLI's kfc-metrics/v1 "run" block).
inline JsonValue bench_metrics_json(const std::string& bench,
                                    const std::string& program,
                                    const SearchResult& result) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "kf-bench-metrics/v1");
  doc.set("bench", bench);
  doc.set("program", program);
  doc.set("best_cost_s", result.best_cost_s);
  doc.set("baseline_cost_s", result.baseline_cost_s);
  doc.set("speedup", result.projected_speedup());
  doc.set("generations", static_cast<long>(result.generations));
  doc.set("evaluations", result.evaluations);
  doc.set("model_evaluations", result.model_evaluations);
  doc.set("faults", result.fault_report.faults);
  doc.set("stop_reason", to_string(result.fault_report.stop_reason));
  doc.set("runtime_s", result.runtime_s);
  doc.set("time_to_best_s", result.time_to_best_s);
  doc.set("launches", static_cast<long>(result.best.num_groups()));
  doc.set("fused_groups", static_cast<long>(result.best.fused_group_count()));
  return doc;
}

/// The HGGA over `ctx`'s objective with the given population, generation
/// cap, stall limit and seed.
inline SearchResult hgga_search(const PlanContext& ctx, int population,
                                int max_generations, int stall, std::uint64_t seed) {
  HggaConfig config;
  config.population = population;
  config.max_generations = max_generations;
  config.stall_generations = stall;
  config.seed = seed;
  return Hgga(ctx.objective, config).run();
}

/// Fig. 7/8 style report: per-new-kernel measured / projected / original
/// sum on K20X, in increasing measured order, with the unproductive count.
inline void report_app_new_kernels(const Program& program, int population,
                                   int max_generations, std::uint64_t seed) {
  const PlanContext ctx(program, DeviceSpec::k20x());
  const Program& expanded = ctx.expansion.program;
  const SearchResult result = hgga_search(
      ctx, population, max_generations, std::max(40, max_generations / 4), seed);
  write_bench_metrics("app_" + program.name(),
                      bench_metrics_json("report_app_new_kernels", program.name(),
                                         result));

  std::cout << "\nBest solution: " << result.best.fused_kernel_count() << " of "
            << expanded.num_kernels() << " kernels fused into "
            << result.best.fused_group_count() << " new kernels ("
            << result.best.num_groups() << " launches total)\n\n";

  const FusedProgram fused = apply_fusion(ctx.checker, result.best);
  struct Row {
    std::string name;
    std::size_t members;
    double measured, projected, original;
  };
  std::vector<Row> rows;
  int unproductive = 0;
  for (const LaunchDescriptor& d : fused.launches) {
    if (!d.is_fused()) continue;
    Row r;
    r.name = strprintf("F%zu", rows.size() + 1);
    r.members = d.members.size();
    r.measured = ctx.simulator.run(expanded, d).time_s;
    r.projected = ctx.model->project(expanded, d).time_s;
    r.original = ctx.simulator.original_sum(expanded, d.members);
    if (r.measured >= r.original) ++unproductive;
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.measured < b.measured; });

  TextTable table({"new kernel", "members", "measured", "projected",
                   "original sum", "speedup"});
  RunningStats err;
  for (const Row& r : rows) {
    table.add(r.name, static_cast<long>(r.members), human_time(r.measured),
              human_time(r.projected), human_time(r.original),
              fixed(r.original / r.measured, 2) + "x");
    err.add(std::abs(r.projected / r.measured - 1.0));
  }
  std::cout << table;
  std::cout << "\n" << unproductive << " of " << rows.size()
            << " new kernels are unproductive (measured >= original sum); "
            << "mean |projection error| " << fixed(100 * err.mean(), 1) << "%\n";
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n==================================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << ")\n"
            << "==================================================================\n";
}

}  // namespace kf::bench
