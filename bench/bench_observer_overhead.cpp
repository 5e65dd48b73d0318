// Observer-overhead harness: each observability sink against a bare twin.
//
// The observability layer's contract is that an attached sink stays out of
// the way of the work it watches, and never changes its result. Three
// sections each measure one sink:
//
//   spans     a SpanTracer on the 64-kernel HGGA over a warm cache    3%
//   tracing   trace log + spans + metrics + SLO on 256-kernel hits    3%
//   recorder  the flight recorder on the same store hits              2%
//
// Protocol: the sink and its bare twin run in alternating short blocks
// (one search, or 20 requests), swapping which of the two goes first on
// every pair. A section's overhead is the median over pairs of (sink block
// time / twin block time) - 1. Drift that lasts longer than a pair hits
// both blocks of it, and a disturbed pair moves the median by one rank,
// where a best-of-N over whole runs swung by tens of percent on a shared
// host. The budgets are fixed here, so a regression cannot pass by
// changing a command line. Every sink block must also reproduce its twin's
// outcome exactly (search plan and cost, or every served plan): a sink
// that changed a result would be a far worse bug than a slow one.
//
// Run it pinned to one CPU with OMP_NUM_THREADS=1, e.g.
//   OMP_NUM_THREADS=1 taskset -c 0 ./build/bench/bench_observer_overhead
// KF_BENCH_SCALE=small shrinks it to a smoke run; the JSON mirror is
// BENCH_observer_overhead.json.
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "serve/plan_server.hpp"
#include "store/plan_store.hpp"

namespace kf::bench {
namespace {

struct Section {
  std::string name;
  std::string workload;
  double budget_pct = 0.0;
  std::vector<double> ratios;  ///< sink block time / twin block time, per pair
  double twin_block_s = 0.0;   ///< median twin block time
  bool identical = true;       ///< every sink outcome equalled its twin's

  /// Overhead in percent at the p-th percentile of the paired ratios.
  double quantile_pct(double p) const {
    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    return 100.0 * (percentile(sorted, p) - 1.0);
  }
  double overhead_pct() const { return quantile_pct(50.0); }
  bool passed() const { return identical && overhead_pct() <= budget_pct; }
};

/// Runs `pairs` (twin, sink) block pairs, alternating which block goes
/// first. `block(sink)` does one block's work and returns its outcome.
template <typename Block>
Section measure(std::string name, std::string workload, double budget_pct,
                int pairs, Block&& block) {
  Section section;
  section.name = std::move(name);
  section.workload = std::move(workload);
  section.budget_pct = budget_pct;
  std::vector<double> twin_s;
  for (int p = 0; p < pairs; ++p) {
    double secs[2] = {0.0, 0.0};
    decltype(block(false)) outcome[2];
    for (int i = 0; i < 2; ++i) {
      const bool sink = (i == 0) == (p % 2 == 1);
      Stopwatch watch;
      outcome[sink] = block(sink);
      secs[sink] = watch.elapsed_s();
    }
    section.ratios.push_back(secs[1] / secs[0]);
    twin_s.push_back(secs[0]);
    if (outcome[0] != outcome[1]) section.identical = false;
  }
  std::sort(twin_s.begin(), twin_s.end());
  section.twin_block_s = percentile(twin_s, 50);
  return section;
}

Section span_section(int pairs) {
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

  // Warm the group-cost cache so both blocks measure the steady state (the
  // first run pays every model evaluation).
  Hgga(ctx.objective, config).run();

  SpanTracer spans(std::size_t{1} << 20);
  Telemetry telemetry;
  telemetry.spans = &spans;
  Section section = measure(
      "spans", testsuite_id(suite) + " HGGA", 3.0, pairs, [&](bool sink) {
        const Telemetry* t = sink ? &telemetry : nullptr;
        ctx.objective.set_telemetry(t);
        const SearchResult r = Hgga(ctx.objective, config).run(nullptr, nullptr, t);
        return std::make_pair(r.best_cost_s, r.best);
      });
  ctx.objective.set_telemetry(nullptr);
  return section;
}

/// The tracing and recorder sections: store hits on a 256-kernel program,
/// where a hit re-validates and re-costs a real plan, so the floor is the
/// serving steady state at application scale (the paper's apps run 418-654
/// kernels), not an empty loop on a toy program.
std::vector<Section> serve_sections(int pairs) {
  TestSuiteConfig suite;
  suite.kernels = 256;
  suite.arrays = 512;
  suite.seed = 7;
  const Program program = make_testsuite_program(suite);
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40()};
  constexpr std::size_t kBlockRequests = 20;

  // One shared store: the first serve's search is deadline-bounded, so two
  // independent warmups could store different plans and the outcome check
  // would compare search nondeterminism instead of the sink.
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/kf_bench_observer_store";
  std::filesystem::remove_all(dir);
  PlanStore store({.dir = dir, .durable = false});
  PlanServer bare(store, PlanServerConfig{});

  std::ostringstream events;
  TraceLog trace(events);
  SpanTracer spans(std::size_t{1} << 20);
  MetricsRegistry metrics;
  SloTracker slo;
  Telemetry traced_telemetry;
  traced_telemetry.trace = &trace;
  traced_telemetry.spans = &spans;
  traced_telemetry.metrics = &metrics;
  traced_telemetry.slo = &slo;
  PlanServerConfig traced_cfg;
  traced_cfg.telemetry = &traced_telemetry;
  PlanServer traced(store, traced_cfg);

  FlightRecorder recorder;
  Telemetry recorded_telemetry;
  recorded_telemetry.recorder = &recorder;
  PlanServerConfig recorded_cfg;
  recorded_cfg.telemetry = &recorded_telemetry;
  PlanServer recorded(store, recorded_cfg);

  // Warm through the bare server (one search per device, written back),
  // then touch each sink's server so every block is on the store-hit path.
  // The budgets were set against this twin, the server that searched. Its
  // larger group-cost cache makes its hits 1-2% slower than a hit-only
  // server's (an A/A check), so each sink reads that much low.
  for (const DeviceSpec& d : devices) {
    bare.serve(program, d);
    traced.serve(program, d);
    recorded.serve(program, d);
  }

  const auto serve_block = [&](PlanServer& server) {
    std::vector<FusionPlan> plans;
    plans.reserve(kBlockRequests);
    for (std::size_t i = 0; i < kBlockRequests; ++i) {
      plans.push_back(server.serve(program, devices[i % devices.size()]).plan);
    }
    return plans;
  };
  const std::string workload = testsuite_id(suite) + " store hits";
  return {measure("tracing", workload, 3.0, pairs,
                  [&](bool sink) { return serve_block(sink ? traced : bare); }),
          measure("recorder", workload, 2.0, pairs,
                  [&](bool sink) { return serve_block(sink ? recorded : bare); })};
}

int run() {
  print_header("Observer overhead: each sink against a bare twin",
               "the observability layer's span, tracing and recorder budgets");

  std::vector<Section> sections;
  // Pair counts keep the median's spread well inside each budget on a
  // noisy shared host, where single-pair ratios scatter by +-6%.
  sections.push_back(span_section(small_scale() ? 10 : 200));
  for (Section& s : serve_sections(small_scale() ? 30 : 400)) {
    sections.push_back(std::move(s));
  }

  TextTable table({"sink", "workload", "pairs", "twin block", "overhead",
                   "quartiles", "budget", "verdict"});
  JsonValue doc = JsonValue::object();
  doc.set("schema", "kf-bench-metrics/v1");
  doc.set("bench", "observer_overhead");
  bool ok = true;
  for (const Section& s : sections) {
    const char* verdict =
        !s.identical ? "OUTCOME CHANGED" : s.passed() ? "ok" : "OVER BUDGET";
    table.add(s.name, s.workload, static_cast<long>(s.ratios.size()),
              human_time(s.twin_block_s), fixed(s.overhead_pct(), 2) + "%",
              fixed(s.quantile_pct(25.0), 1) + "% .. " +
                  fixed(s.quantile_pct(75.0), 1) + "%",
              fixed(s.budget_pct, 1) + "%", verdict);
    JsonValue j = JsonValue::object();
    j.set("workload", s.workload);
    j.set("pairs", static_cast<long>(s.ratios.size()));
    j.set("twin_block_s", s.twin_block_s);
    j.set("overhead_pct", s.overhead_pct());
    j.set("overhead_q1_pct", s.quantile_pct(25.0));
    j.set("overhead_q3_pct", s.quantile_pct(75.0));
    j.set("budget_pct", s.budget_pct);
    j.set("identical_outcome", s.identical);
    doc.set(s.name, std::move(j));
    if (!s.passed()) {
      std::cerr << "FAIL: " << s.name << ": " << verdict << "\n";
      ok = false;
    }
  }
  std::cout << table;
  write_bench_metrics("observer_overhead", doc);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kf::bench

int main() { return kf::bench::run(); }
