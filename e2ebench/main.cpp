// e2ebench — end-to-end benchmark of the fusion planner.
//
//   e2ebench --spec BENCHMARK.json --workload NAME --seed N --seconds S
//            --trace 0|1 [--search-seed N] [--work-dir DIR]
//
// --trace 0 runs the workload for S seconds and reports the end-to-end
// metrics. --trace 1 runs the workload's fixed unit twice, untraced and
// then with a SpanTracer attached (spans only), requires identical
// outputs from both, reconciles the traced unit's per-layer ledger to its
// wall time, runs the layer probes and reports the per-layer metrics.
// The spec's end_to_end and per_layer lists name the metrics of each mode
// and their units. The last line of stdout is the result object; the exit
// code is 0 only when every output check passed.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string_view>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hpp"

namespace {

using namespace e2e;

struct Workload {
  const char* name;
  WorkloadFn run;
};
constexpr Workload kWorkloads[] = {
    {"plan-scale-les", run_plan_scale_les},
    {"serve-hits", run_serve_hits},
    {"serve-mixed", run_serve_mixed},
};

constexpr std::size_t kTracerCapacity = std::size_t{1} << 18;
/// How far the root span may differ from the stopwatch around the same
/// unit: the two start and stop a few statements apart.
constexpr double kLedgerTolerance_s = 1e-3;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "e2ebench: " << error << "\n"
            << "usage: e2ebench --spec BENCHMARK.json --workload plan-scale-les|serve-hits|serve-mixed "
               "--seed N --seconds S --trace 0|1 [--search-seed N] [--work-dir DIR]\n";
  std::exit(2);
}

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics one mode prints, in the spec's order.
std::vector<MetricSpec> read_spec(const std::string& path, bool per_layer) {
  const kf::JsonValue doc = kf::JsonValue::parse(kf::read_file(path));
  const kf::JsonValue* list = doc.find(per_layer ? "per_layer" : "end_to_end");
  if (list == nullptr || !list->is_array()) throw std::runtime_error(path + " lists no metrics");
  std::vector<MetricSpec> out;
  for (const kf::JsonValue& m : list->items())
    out.push_back({m.string_or("name", ""), m.string_or("unit", "")});
  return out;
}

template <typename T, typename Parse>
T parse_number(const std::string& flag, const std::string& text, Parse parse) {
  try {
    std::size_t used = 0;
    const T value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage("bad value '" + text + "' for " + flag);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    seen.insert(flag);
    auto as_u64 = [&] {
      return parse_number<std::uint64_t>(flag, value, [](const std::string& s, std::size_t* n) {
        return std::stoull(s, n);
      });
    };
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = as_u64();
    } else if (flag == "--search-seed") {
      opt.search_seed = as_u64();
    } else if (flag == "--seconds") {
      opt.seconds = parse_number<double>(flag, value, [](const std::string& s, std::size_t* n) {
        return std::stod(s, n);
      });
      if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0)) usage("--seconds must be in (0, 3600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--spec") {
      opt.spec = value;
    } else {
      usage("unknown option " + flag);
    }
  }
  for (const char* required : {"--spec", "--workload", "--seed", "--seconds", "--trace"})
    if (seen.count(required) == 0) usage(std::string("missing ") + required);
  return opt;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Machine and configuration of this result, one stdout line before it.
void print_context(const Options& opt) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  kf::JsonValue info = kf::JsonValue::object();
  info.set("workload", opt.workload);
  info.set("seed", kf::strprintf("%llu", static_cast<unsigned long long>(opt.seed)));
  info.set("search_seed", static_cast<long>(opt.search_seed));
  info.set("seconds", opt.seconds);
  info.set("trace", opt.trace);
  info.set("nproc", nproc);
  info.set("llc_bytes", static_cast<long>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  info.set("build_type", E2EBENCH_BUILD_TYPE);
  info.set("omp_threads", omp_threads());
  std::cout << "e2ebench context " << info.to_string() << "\n";
}

/// Prints every metric of `specs`. An end-to-end metric the run did not
/// compute is an error; a per-layer one reads 0 (the layer is not on this
/// workload's path) and is named on stderr.
void print_result(const RunResult& run, const std::map<std::string, double>& values,
                  const std::vector<MetricSpec>& specs, bool per_layer) {
  std::string metrics;
  std::string absent;
  for (const MetricSpec& m : specs) {
    const auto it = values.find(m.name);
    if (it == values.end()) {
      if (!per_layer) throw std::runtime_error("end-to-end metric " + m.name + " is not computed");
      absent += " " + m.name;
    }
    const double v = it != values.end() && std::isfinite(it->second) ? it->second : 0.0;
    if (!metrics.empty()) metrics += ", ";
    metrics += kf::strprintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m.name.c_str(), v,
                             m.unit.c_str());
  }
  if (!absent.empty()) std::cerr << "e2ebench: not on this workload's path (0):" << absent << "\n";
  for (const std::string& v : run.violations) std::cerr << "e2ebench: CHECK FAILED: " << v << "\n";
  std::cout << kf::strprintf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                             "\"metrics\": {%s}}",
                             run.violations.empty() ? "true" : "false", run.attempted,
                             run.failed, metrics.c_str())
            << std::endl;
}

std::map<std::string, double> end_to_end(const RunResult& run) {
  if (run.windows.empty() || run.setup_s.empty() || run.plan_s.empty())
    throw std::runtime_error("the run timed no complete window of operations");
  std::map<std::string, double> m;
  m["setup_s"] = median(run.setup_s);
  m["time_to_plan_s"] = median(run.plan_s);
  m["plan_speedup"] = run.speedups > 0 ? std::exp(run.log_speedup / static_cast<double>(run.speedups)) : 0.0;
  std::vector<double> p50, p99, rate;
  long fewest_beyond = -1;
  for (const RunResult::Window& w : run.windows) {
    const std::vector<double> slice(run.latency_s.begin() + static_cast<long>(w.begin),
                                    run.latency_s.begin() + static_cast<long>(w.end));
    p50.push_back(median(slice));
    p99.push_back(percentile(slice, 99.0));
    rate.push_back(static_cast<double>(slice.size()) / w.seconds);
    const long beyond = static_cast<long>(slice.size()) / 100;
    fewest_beyond = fewest_beyond < 0 ? beyond : std::min(fewest_beyond, beyond);
  }
  m["latency_p50_s"] = median(p50);
  m["latency_p99_s"] = median(p99);
  m["throughput_rps"] = median(rate);
  m["peak_rss_mb"] = peak_rss_mb();
  std::cerr << kf::strprintf(
      "e2ebench: %zu requests in %zu windows (>= %ld beyond each window's p99%s), "
      "latency min %.6g / median %.6g / max %.6g s, %zu setups, %zu time-to-plan samples\n",
      run.latency_s.size(), run.windows.size(), fewest_beyond,
      fewest_beyond < 10 ? ": too few for a stable p99" : "", percentile(run.latency_s, 0.0),
      median(run.latency_s), percentile(run.latency_s, 100.0), run.setup_s.size(),
      run.plan_s.size());
  return m;
}

/// Self time of the search spans, grouped into phases; the five groups
/// partition every search-layer span under a search run.
void search_breakdown(const kf::SpanTracer& tracer, std::map<std::string, double>& m) {
  static const std::map<std::string_view, const char*> kPhase = {
      {"hgga.breed", "search.breed_self_s"},
      {"hgga.init", "search.init_self_s"},
      {"hgga.evaluate", "search.evaluate_self_s"},
      {"hgga.resolve", "search.evaluate_self_s"},
      {"hgga.eval_misses", "search.evaluate_self_s"},
      {"hgga.score", "search.evaluate_self_s"},
      {"objective.plan_costs", "search.evaluate_self_s"},
      {"objective.cache_probe", "search.evaluate_self_s"},
      {"objective.eval_misses", "search.evaluate_self_s"},
      {"local_polish", "search.polish_self_s"},
      {"bench.search.run", "search.unattributed_s"},
      {"driver.run", "search.unattributed_s"},
      {"driver.validate", "search.unattributed_s"},
      {"driver.dispatch", "search.unattributed_s"},
      {"driver.recover", "search.unattributed_s"},
      {"hgga.run", "search.unattributed_s"},
      {"hgga.generation", "search.unattributed_s"},
      {"greedy.run", "search.unattributed_s"},
      {"greedy.pass", "search.unattributed_s"},
  };
  for (const kf::SpanTracer::FlameRow& row : tracer.flame_table()) {
    const auto it = kPhase.find(row.name);
    if (it != kPhase.end()) m[it->second] += row.self_s;
  }
}

std::map<std::string, double> per_layer(const Options& opt, WorkloadFn fn, RunResult& traced) {
  std::string untraced_digest;
  double untraced_s = 0.0;
  {
    kf::Stopwatch watch;
    RunResult untraced = fn(opt, true, nullptr);
    untraced_s = watch.elapsed_s();  // both units are timed without teardown
    untraced_digest = std::move(untraced.digest);
  }

  kf::SpanTracer tracer(kTracerCapacity);
  double traced_s = 0.0;
  {
    kf::SpanTracer::Scope root = tracer.span("bench.workload", "bench");
    kf::Stopwatch watch;
    traced = fn(opt, true, &tracer);
    traced_s = watch.elapsed_s();
  }
  if (traced.digest != untraced_digest)
    traced.violation("observer effect: the traced unit's plans or counters differ from the untraced unit's");
  if (tracer.dropped() != 0)
    traced.violation(kf::strprintf("span tracer dropped %ld spans", tracer.dropped()));

  std::map<std::string, double> m = traced.layer;
  const Ledger ledger = build_ledger(tracer);
  for (const std::string& error : ledger.errors) traced.violation("ledger: " + error);
  if (std::fabs(ledger.wall_s - traced_s) > kLedgerTolerance_s)
    traced.violation(kf::strprintf("ledger does not reconcile: spans cover %.6f s, stopwatch %.6f s",
                                   ledger.wall_s, traced_s));
  for (const auto& [layer, s] : ledger.layer_s) m["ledger." + layer + "_s"] = s;
  m["ledger.unattributed_s"] = ledger.unattributed_s;
  m["ledger.wall_s"] = ledger.wall_s;

  auto span_total = [&](const char* name) {
    const auto it = ledger.spans.find(name);
    return it != ledger.spans.end() ? it->second : std::pair<long, double>{0, 0.0};
  };
  auto span_mean = [&](const char* name) {
    const auto [count, total] = span_total(name);
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  m["graph.expand_s"] = span_mean("bench.graph.expand");
  m["graph.checker_build_s"] = span_mean("bench.graph.checker_build");
  const long contexts = span_total("bench.graph.expand").first;
  m["search.objective_build_s"] =
      contexts > 0 ? span_total("bench.search.objective_build").second / static_cast<double>(contexts) : 0.0;
  m["store.open_s"] = span_mean("bench.store.open");
  search_breakdown(tracer, m);
  m["telemetry.trace_overhead_frac"] = traced_s / untraced_s - 1.0;
  m["failed_frac"] = traced.attempted > 0
                         ? static_cast<double>(traced.failed) / static_cast<double>(traced.attempted)
                         : 0.0;
  std::cerr << kf::strprintf(
      "e2ebench: traced unit %.6f s vs untraced %.6f s; %ld spans on %d threads; "
      "ledger wall %.6f s\n",
      traced_s, untraced_s, tracer.recorded(), tracer.threads_seen(), ledger.wall_s);

  run_probes(traced, opt.seed, m);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  WorkloadFn fn = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) fn = w.run;
  if (fn == nullptr) usage("unknown workload '" + opt.workload + "'");
#ifdef _OPENMP
  omp_set_num_threads(1);
#endif
  if (opt.work_dir.empty()) opt.work_dir = ".";
  // A private scratch directory for the plan stores, removed at exit.
  const std::filesystem::path scratch =
      std::filesystem::path(opt.work_dir) / ("e2ebench-" + std::to_string(getpid()));
  std::filesystem::create_directories(scratch);
  opt.work_dir = scratch.string();
  print_context(opt);

  int code = 0;
  try {
    const std::vector<MetricSpec> specs = read_spec(opt.spec, opt.trace);
    RunResult run;
    std::map<std::string, double> values;
    if (opt.trace) {
      values = per_layer(opt, fn, run);
    } else {
      run = fn(opt, false, nullptr);
      values = end_to_end(run);
    }
    print_result(run, values, specs, opt.trace);
    code = run.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    code = 3;
  }
  std::filesystem::remove_all(scratch);
  return code;
}
