// End-to-end benchmark of the fusion planner: shared types.
//
// Three workloads drive the public APIs of search, serve and store (see
// workloads.cpp). An untraced run measures the end-to-end metrics; a traced
// run repeats a fixed unit of each workload with a SpanTracer attached,
// builds a per-layer ledger from the spans (ledger.cpp) and then runs layer
// probes outside any timed phase (probes.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kf.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// HGGA seed of plan-scale-les. Fixed rather than derived from --seed:
  /// SCALE-LES search work varies 2x across HGGA seeds, which would swamp
  /// the run-to-run comparison. 9 is the held-out value (similar work).
  std::uint64_t search_seed = 7;
  std::string work_dir;  ///< scratch space for plan stores
  std::string spec;      ///< BENCHMARK.json: names and units of the metrics
};

/// Pins the calling thread, and the threads it creates from now on, to one
/// CPU of the set the process started with: the `turn`-th, modulo its size.
/// Workloads call it between units of work, so no thread migrates inside a
/// timed operation and every run spreads its samples evenly over the CPUs.
void pin_to_cpu(long turn);

/// Opens a benchmark-side span (cat "bench") around `f` and returns its
/// result; the span closes after the result object is constructed.
template <typename F>
auto in_span(const kf::Telemetry* tel, const char* name, F&& f) {
  kf::SpanTracer::Scope span = kf::scoped_span(tel, name, "bench");
  return f();
}

/// ProposedModel behind a timing decorator, attached only in the probe
/// search of a traced run.
class TimedModel final : public kf::ProjectionModel {
 public:
  explicit TimedModel(kf::DeviceSpec device) : inner_(std::move(device)) {}
  const std::string& name() const noexcept override { return inner_.name(); }
  long calls() const noexcept { return calls_.load(); }
  double seconds() const noexcept { return static_cast<double>(ns_.load()) * 1e-9; }

 protected:
  kf::Projection project_impl(const kf::Program& program,
                              const kf::LaunchDescriptor& launch) const override;

 private:
  kf::ProposedModel inner_;
  mutable std::atomic<long> calls_{0};
  mutable std::atomic<long> ns_{0};
};

/// The benchmark's own evaluation stack for one (program, device) pair,
/// built the way the server builds its context but never shared with it:
/// plans the system returns are re-validated and re-costed here.
struct Context {
  std::string label;
  kf::ExpansionResult expansion;
  kf::DeviceSpec device;
  kf::TimingSimulator simulator;
  kf::LegalityChecker checker;
  std::unique_ptr<kf::ProjectionModel> model;
  kf::Objective objective;
  double baseline_s = 0.0;
  kf::PlanKey key;

  Context(const kf::Program& program, const kf::DeviceSpec& dev,
          const kf::Telemetry* tel, bool timed_model = false);

  /// Projected speedup of `plan` under this stack's objective.
  double speedup(const kf::FusionPlan& plan) const {
    return baseline_s / objective.plan_cost(plan);
  }
};

/// A plan store plus a server configured as `kfc serve-batch` configures it
/// (metrics and SLO tracker on; spans only when the run is traced), and an
/// optional worker pool. Members destruct engine-first.
struct ServeStack {
  kf::MetricsRegistry metrics;
  kf::SloTracker slo;
  kf::Telemetry telemetry;
  std::unique_ptr<kf::PlanStore> store;
  std::unique_ptr<kf::PlanServer> server;
  std::unique_ptr<kf::ServeEngine> engine;

  ServeStack(const std::string& dir, kf::SpanTracer* spans, int workers);
};

/// Everything one workload run produced: samples for the end-to-end
/// metrics, per-layer values it measured inline, and the state the layer
/// probes need afterwards.
struct RunResult {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> violations;  ///< independent-check failures

  std::vector<double> setup_s;
  std::vector<double> plan_s;
  std::vector<double> latency_s;
  /// The measured phase cut into windows: a window holds latency_s[begin,
  /// end) and lasted `seconds`. Latency percentiles and throughput are
  /// medians over windows, so a transient slowdown of the machine moves
  /// them less.
  struct Window {
    std::size_t begin = 0;
    std::size_t end = 0;
    double seconds = 0.0;
  };
  std::vector<Window> windows;
  double log_speedup = 0.0;
  long speedups = 0;

  /// Deterministic outputs (plans, counters): equal across runs of one
  /// seed, and between the untraced and traced unit.
  std::string digest;
  std::map<std::string, double> layer;

  std::vector<std::unique_ptr<Context>> contexts;
  std::vector<kf::FusionPlan> plans;  ///< returned plan per context
  kf::Program probe_program;          ///< input of the model probe search
  kf::DeviceSpec probe_device;
  kf::DriverConfig probe_search;
  std::unique_ptr<ServeStack> serve;

  void violation(std::string what) { violations.push_back(std::move(what)); }
  void note_speedup(double s);
};

/// `unit`: the traced run's fixed unit of work (one search, a fixed request
/// count, one stream replay) instead of a run of `opt.seconds`.
using WorkloadFn = RunResult (*)(const Options& opt, bool unit,
                                 kf::SpanTracer* spans);

RunResult run_plan_scale_les(const Options& opt, bool unit, kf::SpanTracer* spans);
RunResult run_serve_hits(const Options& opt, bool unit, kf::SpanTracer* spans);
RunResult run_serve_mixed(const Options& opt, bool unit, kf::SpanTracer* spans);

/// Per-layer self times of the client thread, from the spans of a traced
/// unit rooted at "bench.workload".
struct Ledger {
  std::map<std::string, double> layer_s;  ///< apps, graph, search, fusion, store, serve
  double unattributed_s = 0.0;
  double wall_s = 0.0;  ///< the root span's duration
  /// name -> {count, total seconds} of client-thread spans.
  std::map<std::string, std::pair<long, double>> spans;
  std::vector<std::string> errors;  ///< nesting faults found in the rebuild
};
Ledger build_ledger(const kf::SpanTracer& tracer);

/// Layer probes over a finished traced unit; writes fusion.*, store.*
/// and model.* values into `out`.
void run_probes(const RunResult& run, std::uint64_t seed,
                std::map<std::string, double>& out);

double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

}  // namespace e2e
