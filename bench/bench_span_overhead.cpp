// Span-profiler overhead smoke: HGGA wall time with a SpanTracer attached
// vs. fully disabled telemetry on the 64-kernel test-suite program.
//
// The observability layer's contract is that an attached span tracer stays
// out of the search's way: spans are opened at phase granularity
// (generation / breed / plan_costs batch), not per group query, so the
// instrumented run must stay within a few percent of the bare one. This
// bench measures best-of-N wall time for both configurations on a warm
// group-cost cache and fails when the overhead exceeds the budget
// (--max-overhead PCT, default 3%). Both runs must also produce the exact
// same search outcome — attaching a tracer that changed the result would
// be a far worse bug than a slow one.
//
// The JSON mirror (BENCH_span_overhead.json) feeds the CI perf-smoke job.
#include <cstring>
#include <vector>

#include "bench_common.hpp"

namespace kf::bench {
namespace {

struct Sample {
  double best_s = 1e300;  ///< best-of-N wall time
  double cost_s = 0.0;
  std::string plan;
  long spans = 0;
};

int run(int argc, char** argv) {
  double max_overhead_pct = 3.0;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--max-overhead") == 0)
      max_overhead_pct = std::atof(argv[i + 1]);
  }

  print_header("Span-profiler overhead on the 64-kernel test suite",
               "the observability layer's <3% span-overhead budget");

  TestSuiteConfig suite;
  suite.kernels = 64;
  suite.arrays = 128;
  suite.seed = 7;
  PlanContext ctx(make_testsuite_program(suite), DeviceSpec::k20x());

  HggaConfig config;
  config.population = small_scale() ? 24 : 48;
  config.max_generations = small_scale() ? 15 : 50;
  config.stall_generations = config.max_generations;
  config.seed = 0x5eed;

  const int reps = small_scale() ? 3 : 5;

  // Warm the group-cost cache so both configurations measure the steady
  // state (the first run pays every model evaluation).
  Hgga(ctx.objective, config).run();

  Sample off;
  Sample on;
  for (int rep = 0; rep < reps; ++rep) {
    // Interleave the configurations so drift (thermal, noisy neighbours)
    // hits both evenly.
    {
      ctx.objective.set_telemetry(nullptr);
      Stopwatch watch;
      const SearchResult r = Hgga(ctx.objective, config).run();
      const double secs = watch.elapsed_s();
      if (secs < off.best_s) off.best_s = secs;
      off.cost_s = r.best_cost_s;
      off.plan = r.best.to_string();
    }
    {
      SpanTracer spans;
      Telemetry telemetry;
      telemetry.spans = &spans;
      ctx.objective.set_telemetry(&telemetry);
      Stopwatch watch;
      const SearchResult r =
          Hgga(ctx.objective, config).run(nullptr, nullptr, &telemetry);
      const double secs = watch.elapsed_s();
      if (secs < on.best_s) on.best_s = secs;
      on.cost_s = r.best_cost_s;
      on.plan = r.best.to_string();
      on.spans = spans.recorded() + spans.dropped();
    }
  }
  ctx.objective.set_telemetry(nullptr);

  const double overhead_pct = 100.0 * (on.best_s / off.best_s - 1.0);
  const bool identical = off.cost_s == on.cost_s && off.plan == on.plan;

  TextTable table({"telemetry", "best-of-" + std::to_string(reps), "spans",
                   "overhead"});
  table.add("disabled", human_time(off.best_s), 0L, "--");
  table.add("spans attached", human_time(on.best_s), on.spans,
            fixed(overhead_pct, 2) + "%");
  std::cout << table;
  std::cout << "\nsearch outcome bit-identical with tracer attached: "
            << (identical ? "yes" : "NO — BUG") << "\n"
            << "overhead budget: " << fixed(max_overhead_pct, 1) << "%\n";

  JsonValue doc = JsonValue::object();
  doc.set("schema", "kf-bench-metrics/v1");
  doc.set("bench", "span_overhead");
  doc.set("program", testsuite_id(suite));
  doc.set("reps", static_cast<long>(reps));
  doc.set("disabled_best_s", off.best_s);
  doc.set("spans_best_s", on.best_s);
  doc.set("overhead_pct", overhead_pct);
  doc.set("spans_recorded", on.spans);
  doc.set("identical_outcome", identical);
  write_bench_metrics("span_overhead", doc);

  if (!identical) {
    std::cerr << "FAIL: search outcome changed with spans attached\n";
    return 1;
  }
  if (max_overhead_pct > 0.0 && overhead_pct > max_overhead_pct) {
    std::cerr << "FAIL: span overhead " << fixed(overhead_pct, 2)
              << "% exceeds budget " << fixed(max_overhead_pct, 1) << "%\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kf::bench

int main(int argc, char** argv) { return kf::bench::run(argc, argv); }
