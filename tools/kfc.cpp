// kfc — the kernel-fusion command-line driver.
//
//   kfc demo [name]                     write a sample program to stdout
//   kfc analyze  (<file.kf> | --builtin <name>)   dependency/sharing stats
//   kfc graphs   (<file.kf> | --builtin <name>)   Graphviz dot of both graphs
//   kfc search   (<file.kf> | --builtin <name>) [options]
//   kfc tune     (<file.kf> | --builtin <name>)   launch-config autotuner
//   kfc apply    (<file.kf> | --builtin <name>) --plan "{0,1} {2}..."
//   kfc fuse     --builtin <name> [options]       search + emit CUDA source
//   kfc report   --metrics FILE and/or --events FILE   summarize a past run
//   kfc profile  (<file.kf> | --builtin <name>)   search + span flame table
//   kfc explain  <kernel> (<file.kf> | --builtin <name>)   merge provenance
//   kfc serve-batch FILE.jsonl --store DIR   replay a request stream
//   kfc store (stats|verify|compact) --store DIR   plan-store maintenance
//   kfc slo (--metrics FILE | --events FILE)   SLO burn-rate report
//   kfc top --events FILE               terminal view of a serve event log
//   kfc postmortem BUNDLE.kfr [--json]  diagnose a flight-recorder bundle
//   kfc help                            print the full option list
//
// The option list lives in ONE place — the kFlags table below. The parser
// dispatches through it and usage() renders it, so the help text cannot
// drift from what the parser accepts. Run `kfc help` for the list.
//
// Observability (see README "Observability v3"): `--metrics FILE` writes a
// kfc-metrics/v3 JSON document (run summary + metric series + projection
// calibration + SLO blocks), `--events FILE` writes a JSONL event log (one
// event per HGGA generation plus fault/checkpoint/breakdown/decision
// events; serve-batch adds one "serve_request" wide event per request),
// `--spans FILE` writes the span profile as Chrome trace-event JSON (opens
// in one Perfetto view alongside a `--trace` file — distinct pids),
// `--prom FILE` exports the registry in Prometheus text format (rewritten
// periodically during serve-batch), `--progress N` prints a heartbeat to
// stderr every N generations, and `kfc report` rebuilds a human summary
// from those artifacts.
//
// exit codes (rendered by `kfc help`): 0 success, 1 verification failure,
// 2 usage/precondition error, 3 runtime error (bad input data, I/O,
// unrecovered fault), 4 store corruption salvaged, 5 degraded serve,
// 6 admission rejected, 7 SLO burn above --slo-max-burn. When several
// serving conditions apply the most urgent wins: 7 > 6 > 5 > 4.
//
// Program files use the text IR (see src/ir/program_io.hpp). Builtins:
// rk18, cloverleaf, fig3, scale-les, homme, wrf, asuca, mitgcm, cosmo.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "kf.hpp"

namespace {

using namespace kf;

struct Options {
  std::string command;
  std::string input_file;
  std::string builtin;
  std::string device = "k20x";
  std::string objective = "proposed";
  std::string method = "hgga";
  int population = 60;
  int generations = 300;
  int stall = 90;
  std::uint64_t seed = 0x5eed;
  bool expand = true;
  double mem_budget = -1.0;
  std::string plan_text;
  std::string trace_file;

  // telemetry
  std::string metrics_file;
  std::string events_file;
  std::string spans_file;
  std::string prom_file;
  int prom_every = 64;             ///< serve-batch Prometheus rewrite cadence
  double slo_max_burn = 0.0;       ///< 0 = SLO exit-code gate off
  double slo_latency_target = 0.0; ///< 0 = latency SLO objective off
  bool follow = false;             ///< top: keep refreshing
  double interval_s = 2.0;         ///< top --follow refresh period
  long explain_kernel = -1;       ///< `kfc explain <kernel>`
  double calibration_band = 0.0;  ///< 0 = CalibrationTracker default
  int progress_every = 0;
  int top_k = 5;

  // resilience
  double deadline_s = 0.0;
  long max_evals = 0;
  long max_faults = 0;
  std::string checkpoint_file;
  int checkpoint_every = 5;
  bool resume = false;
  std::vector<FaultPlan> injections;

  // serving (serve-batch / store)
  std::string store_dir;
  double serve_rate = 0.0;  ///< admits/s; 0 = admission off
  double serve_burst = 8.0;
  int serve_queue = 8;
  double serve_deadline = 0.0;  ///< default per-request deadline; 0 = server default
  int serve_retries = 2;
  double min_search_budget = 0.010;
  int workers = 1;       ///< serve-batch worker pool size; 1 = serial replay
  int queue_cap = 256;   ///< serve-batch engine queue capacity

  // incident capture (serve-batch) / postmortem
  std::string recorder_dir;      ///< empty = flight recorder off
  long recorder_cap = 4096;      ///< flight-recorder ring slots
  bool dump_on_exit = false;     ///< write an exit-dump bundle at batch end
  double watchdog_stall = 0.0;   ///< 0 = stalled-worker scan off
  double watchdog_interval = 0.25;
  long watchdog_spike = 0;       ///< 0 = deadline-miss spike trigger off
  long stall_request = 0;        ///< TEST: stall the Nth popped job
  double stall_s = 2.0;          ///< TEST: how long the injected stall lasts
  long crash_request = 0;        ///< TEST: SIGSEGV before the Nth popped job
  bool json_output = false;      ///< postmortem: machine-readable report
};

void print_usage(std::ostream& os);

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  print_usage(std::cerr);
  std::exit(2);
}

// ---- numeric flag parsing (usage() on malformed input) ----
template <typename Fn>
auto parse_num(const char* flag, const std::string& value, Fn fn) {
  try {
    std::size_t used = 0;
    auto parsed = fn(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    usage(std::string("expected a number for ") + flag + ", got '" + value + "'");
  }
}
int flag_int(const char* flag, const std::string& v) {
  return parse_num(flag, v, [](const std::string& s, std::size_t* n) { return std::stoi(s, n); });
}
long flag_long(const char* flag, const std::string& v) {
  return parse_num(flag, v, [](const std::string& s, std::size_t* n) { return std::stol(s, n); });
}
double flag_double(const char* flag, const std::string& v) {
  return parse_num(flag, v, [](const std::string& s, std::size_t* n) { return std::stod(s, n); });
}
std::uint64_t flag_seed(const char* flag, const std::string& v) {
  return parse_num(flag, v, [](const std::string& s, std::size_t* n) { return std::stoull(s, n); });
}

/// One accepted option: the parser dispatches through this table and
/// usage() renders it — the single source of truth for the CLI surface.
struct FlagSpec {
  const char* name;   ///< "--device"
  const char* value;  ///< metavar; nullptr for boolean flags
  const char* help;   ///< one-line description
  void (*apply)(Options&, const std::string& value);  ///< value empty for booleans
};

const FlagSpec kFlags[] = {
    {"--builtin", "NAME",
     "built-in program: rk18|cloverleaf|swe|fig3|scale-les|homme|wrf|asuca|mitgcm|cosmo",
     [](Options& o, const std::string& v) { o.builtin = v; }},
    {"--device", "NAME", "target device: k20x|k40|gtx750ti (default k20x)",
     [](Options& o, const std::string& v) { o.device = v; }},
    {"--objective", "NAME",
     "cost model: proposed|roofline|simple|literal (default proposed)",
     [](Options& o, const std::string& v) { o.objective = v; }},
    {"--method", "NAME",
     "search method: hgga|greedy|annealing|random|exhaustive (default hgga)",
     [](Options& o, const std::string& v) { o.method = v; }},
    {"--pop", "N", "HGGA population size (default 60)",
     [](Options& o, const std::string& v) { o.population = flag_int("--pop", v); }},
    {"--gens", "N", "generation cap (default 300)",
     [](Options& o, const std::string& v) { o.generations = flag_int("--gens", v); }},
    {"--stall", "N", "stop after N flat generations (default 90)",
     [](Options& o, const std::string& v) { o.stall = flag_int("--stall", v); }},
    {"--seed", "S", "search RNG seed",
     [](Options& o, const std::string& v) { o.seed = flag_seed("--seed", v); }},
    {"--no-expand", nullptr, "skip expandable-array relaxation",
     [](Options& o, const std::string&) { o.expand = false; }},
    {"--mem-budget", "BYTES", "cap the redundant-array memory cost of expansion",
     [](Options& o, const std::string& v) { o.mem_budget = flag_double("--mem-budget", v); }},
    {"--plan", "PLAN", "cost a fixed plan, e.g. \"{0,1} {2}\" (apply)",
     [](Options& o, const std::string& v) { o.plan_text = v; }},
    {"--trace", "FILE", "write a Chrome-trace JSON of the fused schedule",
     [](Options& o, const std::string& v) { o.trace_file = v; }},
    {"--metrics", "FILE",
     "write run metrics as kfc-metrics/v3 JSON (input to `kfc report`)",
     [](Options& o, const std::string& v) { o.metrics_file = v; }},
    {"--events", "FILE",
     "write a JSONL structured event log (input to `kfc report`)",
     [](Options& o, const std::string& v) { o.events_file = v; }},
    {"--spans", "FILE",
     "write the span profile as Chrome trace-event JSON (Perfetto)",
     [](Options& o, const std::string& v) { o.spans_file = v; }},
    {"--prom", "FILE",
     "write metrics in Prometheus text format (serve-batch: periodic rewrite)",
     [](Options& o, const std::string& v) { o.prom_file = v; }},
    {"--prom-every", "N",
     "serve-batch: requests between Prometheus rewrites (default 64)",
     [](Options& o, const std::string& v) {
       o.prom_every = flag_int("--prom-every", v);
       KF_REQUIRE(o.prom_every > 0, "--prom-every must be positive, got '" << v << "'");
     }},
    {"--slo-max-burn", "X",
     "slo/serve-batch: exit 7 when the worst SLO burn rate exceeds X",
     [](Options& o, const std::string& v) {
       o.slo_max_burn = flag_double("--slo-max-burn", v);
     }},
    {"--slo-latency-target", "S",
     "SLO latency objective: budget the fraction of requests slower than S",
     [](Options& o, const std::string& v) {
       o.slo_latency_target = flag_double("--slo-latency-target", v);
     }},
    {"--follow", nullptr, "top: keep refreshing until interrupted",
     [](Options& o, const std::string&) { o.follow = true; }},
    {"--interval", "S", "top --follow refresh period in seconds (default 2)",
     [](Options& o, const std::string& v) {
       o.interval_s = flag_double("--interval", v);
       KF_REQUIRE(o.interval_s > 0.0, "--interval must be positive, got '" << v << "'");
     }},
    {"--kernel", "K", "explain: the kernel id to explain",
     [](Options& o, const std::string& v) { o.explain_kernel = flag_long("--kernel", v); }},
    {"--calibration-band", "X",
     "flag projection drift when a bucket's |mean rel error| exceeds X",
     [](Options& o, const std::string& v) {
       o.calibration_band = flag_double("--calibration-band", v);
       KF_REQUIRE(o.calibration_band > 0.0,
                  "--calibration-band must be positive, got '" << v << "'");
     }},
    {"--progress", "N", "print a heartbeat to stderr every N generations",
     [](Options& o, const std::string& v) { o.progress_every = flag_int("--progress", v); }},
    {"--top", "K", "report: rows in the per-group cost table (default 5)",
     [](Options& o, const std::string& v) { o.top_k = flag_int("--top", v); }},
    {"--deadline", "S", "wall-clock budget; stop with best-so-far",
     [](Options& o, const std::string& v) { o.deadline_s = flag_double("--deadline", v); }},
    {"--max-evals", "N", "objective-evaluation budget",
     [](Options& o, const std::string& v) { o.max_evals = flag_long("--max-evals", v); }},
    {"--max-faults", "N", "stop after N quarantined faults",
     [](Options& o, const std::string& v) { o.max_faults = flag_long("--max-faults", v); }},
    {"--checkpoint", "FILE", "HGGA: save resumable state periodically",
     [](Options& o, const std::string& v) { o.checkpoint_file = v; }},
    {"--checkpoint-every", "N", "checkpoint cadence in generations (default 5)",
     [](Options& o, const std::string& v) { o.checkpoint_every = flag_int("--checkpoint-every", v); }},
    {"--resume", nullptr, "HGGA: continue from --checkpoint FILE",
     [](Options& o, const std::string&) { o.resume = true; }},
    {"--inject", "KIND:RATE[:SEED]",
     "arm fault injection (kind: objective|projection|simulator|parser|store)",
     [](Options& o, const std::string& v) { o.injections.push_back(parse_fault_plan(v)); }},
    {"--store", "DIR", "plan-store directory (serve-batch, store)",
     [](Options& o, const std::string& v) { o.store_dir = v; }},
    {"--rate", "R", "admission: sustained admits per second (default off)",
     [](Options& o, const std::string& v) { o.serve_rate = flag_double("--rate", v); }},
    {"--burst", "N", "admission: token-bucket burst capacity (default 8)",
     [](Options& o, const std::string& v) { o.serve_burst = flag_double("--burst", v); }},
    {"--queue", "N", "admission: bounded queue depth (default 8)",
     [](Options& o, const std::string& v) { o.serve_queue = flag_int("--queue", v); }},
    {"--serve-deadline", "S", "default per-request deadline in seconds (default 2)",
     [](Options& o, const std::string& v) { o.serve_deadline = flag_double("--serve-deadline", v); }},
    {"--retries", "N", "serve: FullSearch retries after a fault storm (default 2)",
     [](Options& o, const std::string& v) { o.serve_retries = flag_int("--retries", v); }},
    {"--min-search-budget", "S",
     "serve: skip FullSearch when less budget remains (default 0.01)",
     [](Options& o, const std::string& v) {
       o.min_search_budget = flag_double("--min-search-budget", v);
     }},
    {"--workers", "N",
     "serve-batch: worker-pool size (default 1 = serial replay)",
     [](Options& o, const std::string& v) { o.workers = flag_int("--workers", v); }},
    {"--queue-cap", "N",
     "serve-batch: engine request-queue capacity (default 256)",
     [](Options& o, const std::string& v) { o.queue_cap = flag_int("--queue-cap", v); }},
    {"--recorder-dir", "DIR",
     "serve-batch: arm the flight recorder; incident bundles land in DIR",
     [](Options& o, const std::string& v) { o.recorder_dir = v; }},
    {"--recorder-cap", "N", "flight-recorder ring capacity (default 4096)",
     [](Options& o, const std::string& v) {
       o.recorder_cap = flag_long("--recorder-cap", v);
       KF_REQUIRE(o.recorder_cap > 0,
                  "--recorder-cap must be positive, got '" << v << "'");
     }},
    {"--dump-on-exit", nullptr,
     "serve-batch: write an exit-dump incident bundle when the batch ends",
     [](Options& o, const std::string&) { o.dump_on_exit = true; }},
    {"--watchdog-stall", "S",
     "serve-batch: dump when a worker is stuck on one job longer than S",
     [](Options& o, const std::string& v) {
       o.watchdog_stall = flag_double("--watchdog-stall", v);
     }},
    {"--watchdog-interval", "S",
     "watchdog scan cadence in seconds (default 0.25)",
     [](Options& o, const std::string& v) {
       o.watchdog_interval = flag_double("--watchdog-interval", v);
       KF_REQUIRE(o.watchdog_interval > 0.0,
                  "--watchdog-interval must be positive, got '" << v << "'");
     }},
    {"--watchdog-spike", "N",
     "serve-batch: dump on N+ new deadline misses within one scan",
     [](Options& o, const std::string& v) {
       o.watchdog_spike = flag_long("--watchdog-spike", v);
     }},
    {"--stall-request", "N",
     "TEST: worker sleeps --stall-s before serving the Nth popped job",
     [](Options& o, const std::string& v) {
       o.stall_request = flag_long("--stall-request", v);
     }},
    {"--stall-s", "S", "TEST: injected stall duration (default 2)",
     [](Options& o, const std::string& v) { o.stall_s = flag_double("--stall-s", v); }},
    {"--crash-request", "N",
     "TEST: raise SIGSEGV before serving the Nth popped job",
     [](Options& o, const std::string& v) {
       o.crash_request = flag_long("--crash-request", v);
     }},
    {"--json", nullptr, "postmortem: emit the report as one JSON document",
     [](Options& o, const std::string&) { o.json_output = true; }},
};

void print_usage(std::ostream& os) {
  os << "usage: kfc <command> [input] [options]\n"
        "commands:\n"
        "  demo [name]   write a sample program to stdout\n"
        "  analyze       dependency/sharing stats\n"
        "  graphs        Graphviz dot of dependency + execution-order graphs\n"
        "  search        search for a fusion plan\n"
        "  tune          launch-config autotuner\n"
        "  apply         cost a fixed plan (--plan)\n"
        "  fuse          search + emit CUDA source\n"
        "  report        summarize a run from --metrics and/or --events files\n"
        "  profile       search, then print the span self-time flame table\n"
        "  explain K     search, then replay kernel K's merge decisions\n"
        "  serve-batch   replay a JSONL request stream through the plan server\n"
        "  store SUB     plan-store maintenance: stats | verify | compact\n"
        "  slo           SLO burn-rate report from --metrics and/or --events\n"
        "  top           terminal view of a serve event log (--events FILE)\n"
        "  postmortem B  diagnose a flight-recorder incident bundle (.kfr)\n"
        "  help          print this message\n"
        "input: a .kf program file, or --builtin NAME\n"
        "options:\n";
  for (const FlagSpec& f : kFlags) {
    std::string head = f.name;
    if (f.value != nullptr) {
      head += ' ';
      head += f.value;
    }
    os << strprintf("  %-28s %s\n", head.c_str(), f.help);
  }
  // The exit-code table lives here, next to the flag table, for the same
  // reason: one rendered source of truth (tests assert on this text).
  static const struct { int code; const char* meaning; } kExitCodes[] = {
      {0, "success"},
      {1, "verification failure (illegal plan, equivalence/reconcile FAIL)"},
      {2, "usage or precondition error"},
      {3, "runtime error (bad input data, I/O, unrecovered fault)"},
      {4, "store corruption detected and salvaged (recovery not clean; "
          "postmortem: bundle truncated or partly quarantined)"},
      {5, "degraded serve (some request answered below its natural rung)"},
      {6, "admission rejected (some request shed by the token bucket)"},
      {7, "SLO burn rate above --slo-max-burn (slo, serve-batch)"},
  };
  os << "exit codes (serving conditions by precedence 7 > 6 > 5 > 4):\n";
  for (const auto& e : kExitCodes) {
    os << strprintf("  %d  %s\n", e.code, e.meaning);
  }
}

Program load_builtin(const std::string& name) {
  if (name == "rk18") return scale_les_rk18();
  if (name == "cloverleaf") return cloverleaf();
  if (name == "swe") return shallow_water();
  if (name == "fig3") return motivating_example();
  if (name == "scale-les") return scale_les();
  if (name == "homme") return homme();
  if (name == "wrf") return wrf();
  if (name == "asuca") return asuca();
  if (name == "mitgcm") return mitgcm();
  if (name == "cosmo") return cosmo();
  usage("unknown builtin '" + name + "'");
}

Program load_input(const Options& opt) {
  if (!opt.builtin.empty()) return load_builtin(opt.builtin);
  if (opt.input_file.empty()) usage("no input given");
  std::ifstream in(opt.input_file);
  if (!in) usage("cannot open '" + opt.input_file + "'");
  return read_program(in);
}

DeviceSpec load_device(const std::string& name) {
  if (name == "k20x") return DeviceSpec::k20x();
  if (name == "k40") return DeviceSpec::k40();
  if (name == "gtx750ti") return DeviceSpec::gtx750ti();
  usage("unknown device '" + name + "'");
}

Options parse(int argc, char** argv) {
  Options opt;
  if (argc < 2) usage();
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : kFlags) {
      if (arg == f.name) {
        spec = &f;
        break;
      }
    }
    if (spec != nullptr) {
      std::string value;
      if (spec->value != nullptr) {
        if (i + 1 >= argc) usage("missing value for " + arg);
        value = argv[++i];
      }
      spec->apply(opt, value);
    } else if (!arg.empty() && arg[0] == '-') {
      usage("unknown option " + arg);
    } else if (opt.command == "demo" && opt.builtin.empty()) {
      opt.builtin = arg;  // demo takes a bare builtin name
    } else if (opt.command == "explain" && opt.explain_kernel < 0 &&
               !arg.empty() &&
               arg.find_first_not_of("0123456789") == std::string::npos) {
      opt.explain_kernel = flag_long("explain <kernel>", arg);
    } else if (opt.input_file.empty()) {
      opt.input_file = arg;
    } else {
      usage("unexpected argument " + arg);
    }
  }
  KF_REQUIRE(!opt.resume || !opt.checkpoint_file.empty(),
             "--resume requires --checkpoint FILE");
  return opt;
}

int cmd_demo(const Options& opt) {
  const Program program = load_builtin(opt.builtin.empty() ? "rk18" : opt.builtin);
  std::cout << to_text(program);
  return 0;
}

int cmd_analyze(const Options& opt) {
  Program program = load_input(opt);
  const DependencyGraph deps = DependencyGraph::build(program);
  const SharingGraph sharing = SharingGraph::build(program);
  const auto hist = deps.usage_histogram();

  std::cout << "program '" << program.name() << "': " << program.num_kernels()
            << " kernels, " << program.num_arrays() << " arrays, grid "
            << program.grid().nx << "x" << program.grid().ny << "x"
            << program.grid().nz << "\n";
  std::cout << "array usage: " << hist[0] << " read-only, " << hist[2]
            << " read-write, " << hist[3] << " expandable, " << hist[1]
            << " write-only\n";
  std::cout << "shared arrays: " << sharing.shared_arrays().size() << "\n";

  const ExpansionResult expansion = expand_arrays(program);
  std::cout << "expansion: +" << expansion.arrays_added << " arrays ("
            << human_bytes(expansion.extra_bytes) << ")\n";
  const ExecutionOrderGraph order = ExecutionOrderGraph::build(expansion.program);
  std::cout << "order-of-execution edges (after expansion): "
            << order.dag().num_edges() << "\n";

  const ReducibleTrafficReport traffic = reducible_traffic(program, opt.expand);
  std::cout << "GMEM traffic: " << human_bytes(traffic.original_bytes)
            << ", reducible bound " << fixed(100 * traffic.reducible_fraction, 1)
            << "%\n";
  return 0;
}

int cmd_graphs(const Options& opt) {
  const Program program = load_input(opt);
  const DependencyGraph deps = DependencyGraph::build(program);
  std::cout << deps.to_dot(program) << "\n";
  const ExecutionOrderGraph order = ExecutionOrderGraph::build(program, deps);
  std::cout << order.to_dot(program);
  return 0;
}

struct SearchOutcome {
  SearchResult result;
  ExpansionResult expansion;
  FusedProgram fused;
  Objective::CacheStats cache;  ///< evaluation-engine counters at run end
  bool expanded = false;

  // Observability sinks, attached only when a flag or command asks for
  // them (null otherwise); they outlive run_search so `kfc profile` /
  // `kfc explain` can render from them.
  std::unique_ptr<SpanTracer> spans;
  std::unique_ptr<DecisionLog> decisions;
  std::unique_ptr<CalibrationTracker> calibration;
  ModelSpanSummary model;  ///< filled when spans are attached
};

/// Per-launch "group_breakdown" events: where the simulator says each
/// launch of the final plan spends its predicted time. Aggregated per
/// component into "plan.<component>_s" gauges when metrics are attached.
void emit_group_breakdowns(const Telemetry& telemetry, const TimingSimulator& sim,
                           const Program& program, const FusedProgram& fused) {
  double totals[7] = {};
  static const char* const kNames[7] = {
      "gmem_traffic_s", "halo_s", "latency_stall_s", "smem_s",
      "barrier_s",      "compute_s", "launch_s"};
  for (const LaunchDescriptor& d : fused.launches) {
    SimResult sim_result;
    try {
      sim_result = sim.run(program, d);
    } catch (const RuntimeError&) {
      continue;  // injected simulator fault on the report pass: skip the row
    }
    if (!sim_result.launchable) continue;
    const TimeBreakdown& b = sim_result.breakdown;
    const double components[7] = {b.gmem_traffic_s, b.halo_s, b.latency_stall_s,
                                  b.smem_s,         b.barrier_s, b.compute_s,
                                  b.launch_s};
    for (int c = 0; c < 7; ++c) totals[c] += components[c];
    if (telemetry.wants_trace()) {
      telemetry.trace->emit("group_breakdown", [&](TraceEvent& e) {
        JsonValue members = JsonValue::array();
        for (KernelId k : d.members) members.push_back(JsonValue(static_cast<long>(k)));
        e.str("name", d.name).json("members", members).num("total_s", b.total_s);
        for (int c = 0; c < 7; ++c) e.num(kNames[c], components[c]);
      });
    }
  }
  if (telemetry.metrics != nullptr) {
    for (int c = 0; c < 7; ++c) {
      telemetry.metrics->gauge(std::string("plan.") + kNames[c], totals[c]);
    }
  }
}

/// Writes the kfc-metrics/v3 document: a "run" summary block, the
/// registry's counters/gauges/histograms, and (when tracked) the
/// projection-calibration block.
void write_metrics_file(const Options& opt, const SearchOutcome& out,
                        const MetricsRegistry& metrics) {
  JsonValue root = JsonValue::object();
  root.set("schema", "kfc-metrics/v3");
  JsonValue run = JsonValue::object();
  run.set("program", out.expansion.program.name());
  run.set("method", opt.method);
  run.set("objective", opt.objective);
  run.set("device", opt.device);
  run.set("stop_reason", to_string(out.result.fault_report.stop_reason));
  run.set("best_cost_s", out.result.best_cost_s);
  run.set("baseline_cost_s", out.result.baseline_cost_s);
  run.set("speedup", out.result.projected_speedup());
  run.set("generations", static_cast<long>(out.result.generations));
  run.set("evaluations", out.result.evaluations);
  run.set("model_evaluations", out.result.model_evaluations);
  run.set("faults", out.result.fault_report.faults);
  run.set("quarantined", out.result.fault_report.quarantined);
  run.set("runtime_s", out.result.runtime_s);
  run.set("launches", static_cast<long>(out.result.best.num_groups()));
  run.set("cache_hits", out.cache.hits);
  run.set("cache_misses", out.cache.misses);
  run.set("cache_hit_rate", out.cache.hit_rate());
  run.set("cache_entries", static_cast<long>(out.cache.entries));
  run.set("cache_incremental_hits", out.cache.incremental_hits);
  run.set("cache_duplicate_misses", out.cache.duplicate_misses);
  run.set("cache_shard_contention", out.cache.shard_contention);
  root.set("run", std::move(run));
  const JsonValue series = metrics.to_json();
  for (const auto& [key, value] : series.members()) {
    root.set(key, value);
  }
  if (out.calibration != nullptr) {
    root.set("calibration", out.calibration->to_json());
  }
  std::ofstream os(opt.metrics_file);
  KF_REQUIRE(static_cast<bool>(os), "cannot open metrics file '" << opt.metrics_file << "'");
  os << root.to_string(2) << "\n";
  std::cerr << "wrote " << opt.metrics_file << "\n";
}

SearchOutcome run_search(const Options& opt, const Program& program) {
  const ExpansionResult expansion =
      opt.expand ? expand_arrays(program, opt.mem_budget)
                 : ExpansionResult{.program = program,
                                   .arrays_added = 0,
                                   .extra_bytes = 0.0,
                                   .versions = {}};
  const DeviceSpec device = load_device(opt.device);
  const TimingSimulator sim(device);
  const LegalityChecker checker(expansion.program, device);

  std::unique_ptr<ProjectionModel> model;
  if (opt.objective == "proposed") {
    model = std::make_unique<ProposedModel>(device);
  } else if (opt.objective == "literal") {
    model = std::make_unique<ProposedModel>(
        device, ProposedModel::Params{
                    .formulation = ProposedModel::Formulation::PaperLiteral});
  } else if (opt.objective == "roofline") {
    model = std::make_unique<RooflineModel>(device);
  } else if (opt.objective == "simple") {
    model = std::make_unique<SimpleModel>(expansion.program, sim);
  } else {
    usage("unknown objective '" + opt.objective + "'");
  }
  Objective objective(checker, *model, sim);

  // Telemetry sinks: only attached when a flag or command asks for them,
  // so the default run keeps the one-branch disabled path everywhere.
  MetricsRegistry metrics;
  std::optional<TraceLog> trace_log;
  SearchOutcome out;
  Telemetry telemetry;
  if (!opt.metrics_file.empty() || !opt.prom_file.empty())
    telemetry.metrics = &metrics;
  if (!opt.events_file.empty()) {
    trace_log.emplace(opt.events_file);
    telemetry.trace = &*trace_log;
  }
  if (!opt.spans_file.empty() || opt.command == "profile") {
    out.spans = std::make_unique<SpanTracer>();
    telemetry.spans = out.spans.get();
  }
  if (!opt.events_file.empty() || opt.command == "explain") {
    // `explain` replays the full merge chain, so give it a deep ring —
    // greedy rejects alone can evict the interesting merges from the
    // default one on large programs.
    out.decisions = std::make_unique<DecisionLog>(
        opt.command == "explain" ? std::size_t{1} << 16
                                 : DecisionLog::kDefaultCapacity);
    telemetry.decisions = out.decisions.get();
  }
  if (!opt.metrics_file.empty() || !opt.events_file.empty() ||
      opt.calibration_band > 0.0) {
    CalibrationTracker::Options copts;
    if (opt.calibration_band > 0.0) copts.drift_band = opt.calibration_band;
    out.calibration = std::make_unique<CalibrationTracker>(copts);
    telemetry.calibration = out.calibration.get();
  }
  telemetry.progress_every = opt.progress_every;
  const bool want_telemetry = telemetry.active();
  if (want_telemetry) objective.set_telemetry(&telemetry);

  SearchResult result;
  if (!opt.plan_text.empty()) {
    result.best = FusionPlan::parse(expansion.program.num_kernels(), opt.plan_text);
    KF_REQUIRE(checker.plan_is_legal(result.best), "supplied plan is illegal");
    result.best_cost_s = objective.plan_cost(result.best);
    result.baseline_cost_s = objective.baseline_cost();
  } else {
    DriverConfig cfg;
    cfg.method = search_method_from_string(opt.method);
    cfg.limits.deadline_s = opt.deadline_s;
    cfg.limits.max_evaluations = opt.max_evals;
    cfg.limits.max_faults = opt.max_faults;
    cfg.hgga.population = opt.population;
    cfg.hgga.max_generations = opt.generations;
    cfg.hgga.stall_generations = opt.stall;
    cfg.hgga.seed = opt.seed;
    cfg.annealing.iterations = static_cast<long>(opt.population) * opt.generations;
    cfg.annealing.seed = opt.seed;
    cfg.random.samples = static_cast<long>(opt.population) * opt.generations;
    cfg.random.seed = opt.seed;
    cfg.checkpointing.file = opt.checkpoint_file;
    cfg.checkpointing.every_generations = opt.checkpoint_every;
    cfg.checkpointing.resume = opt.resume;
    if (want_telemetry) cfg.telemetry = &telemetry;
    result = SearchDriver(objective, cfg).run();
  }

  out.result = std::move(result);
  out.fused = apply_fusion(checker, out.result.best);
  out.expansion = std::move(expansion);
  out.cache = objective.cache_stats();
  out.expanded = opt.expand;

  // Report.
  std::cerr << "search (" << opt.method << "/" << opt.objective << " on "
            << device.name << "): " << out.result.generations << " generations, "
            << out.result.evaluations << " evaluations, "
            << human_time(out.result.runtime_s) << "\n";
  const FaultReport& faults = out.result.fault_report;
  if (!faults.clean()) {
    std::cerr << "resilience: stop reason " << to_string(faults.stop_reason) << ", "
              << faults.faults << " faults, " << faults.quarantined
              << " groups quarantined\n";
  }
  std::cerr << "plan: " << program.num_kernels() << " kernels -> "
            << out.result.best.num_groups() << " launches ("
            << out.result.best.fused_group_count() << " fused)\n";
  try {
    const double before = sim.program_time(out.expansion.program);
    double after = 0;
    for (const LaunchDescriptor& d : out.fused.launches) {
      after += sim.run(out.expansion.program, d).time_s;
    }
    std::cerr << "projected " << fixed(out.result.projected_speedup(), 2)
              << "x, simulated " << human_time(before) << " -> " << human_time(after)
              << " (" << fixed(before / after, 2) << "x)\n";
  } catch (const RuntimeError& e) {
    // Injected simulator faults can hit the report pass; the search result
    // above still stands.
    std::cerr << "projected " << fixed(out.result.projected_speedup(), 2)
              << "x, simulated report unavailable: " << e.what() << "\n";
  }
  if (!opt.trace_file.empty()) {
    const EventSimulator events(device);
    const EventTrace trace = events.run_sequence(out.expansion.program, out.fused.launches);
    std::ofstream trace_out(opt.trace_file);
    KF_REQUIRE(static_cast<bool>(trace_out), "cannot open trace file");
    trace_out << trace.to_chrome_trace_json();
    std::cerr << "wrote " << opt.trace_file << " (makespan "
              << human_time(trace.makespan_s) << ", utilisation "
              << fixed(100 * trace.utilisation(device), 1) << "%)\n";
  }
  if (out.spans != nullptr) {
    // Attribute the final plan's simulated time as virtual spans so the
    // span export and `kfc profile` carry the model view too.
    out.model = emit_model_spans(*out.spans, sim, out.expansion.program,
                                 out.fused.launches);
    if (!opt.spans_file.empty()) {
      ChromeTraceWriter writer;
      out.spans->append_chrome_trace(writer);
      std::ofstream spans_out(opt.spans_file);
      KF_REQUIRE(static_cast<bool>(spans_out),
                 "cannot open spans file '" << opt.spans_file << "'");
      spans_out << writer.finish();
      std::cerr << "wrote " << opt.spans_file << " (" << out.spans->recorded()
                << " spans, " << out.spans->threads_seen() << " threads";
      if (out.spans->dropped() > 0) {
        std::cerr << ", " << out.spans->dropped() << " dropped";
      }
      std::cerr << ")\n";
    }
  }
  if (want_telemetry) {
    emit_group_breakdowns(telemetry, sim, out.expansion.program, out.fused);
    if (telemetry.wants_trace() && out.decisions != nullptr) {
      // Persist the provenance ring alongside the event stream so `kfc
      // report` (and any JSONL consumer) sees the decisions.
      for (const DecisionLog::Decision& d : out.decisions->snapshot()) {
        telemetry.trace->emit("decision", [&](TraceEvent& e) {
          JsonValue members = JsonValue::array();
          const int inline_count =
              std::min<int>(d.member_count, DecisionLog::kMaxMembers);
          for (int m = 0; m < inline_count; ++m) {
            members.push_back(JsonValue(static_cast<long>(d.members[m])));
          }
          e.num("seq", static_cast<double>(d.seq))
              .str("site", DecisionLog::to_string(d.site))
              .boolean("accepted", d.accepted)
              .num("cost_delta_s", d.cost_delta_s)
              .str("dominant", d.dominant)
              .num("member_count", static_cast<long>(d.member_count))
              .json("members", members);
        });
      }
    }
    if (!opt.metrics_file.empty()) write_metrics_file(opt, out, metrics);
    if (!opt.prom_file.empty()) {
      prometheus_write_file(metrics, opt.prom_file);
      std::cerr << "wrote " << opt.prom_file << " (Prometheus text format)\n";
    }
    if (!opt.events_file.empty()) {
      std::cerr << "wrote " << opt.events_file << " (" << trace_log->events()
                << " events)\n";
    }
  }
  return out;
}

int cmd_tune(const Options& opt) {
  const Program program = load_input(opt);
  const DeviceSpec device = load_device(opt.device);
  const LaunchTunerResult r = tune_launch_config(program, device);
  TextTable table({"block", "threads", "simulated time"});
  for (const auto& [config, time] : r.sweep) {
    table.add(strprintf("%dx%d", config.block_x, config.block_y),
              config.threads_per_block(), human_time(time));
  }
  std::cout << table;
  std::cout << "best: " << r.best.block_x << "x" << r.best.block_y << " ("
            << human_time(r.best_time_s) << ")\n";
  return 0;
}

int cmd_report(const Options& opt) {
  if (opt.metrics_file.empty() && opt.events_file.empty()) {
    usage("report needs --metrics FILE and/or --events FILE");
  }
  const RunReport report = RunReport::from_files(opt.metrics_file, opt.events_file);
  std::cout << report.render(opt.top_k);
  return 0;
}

/// `kfc profile`: search with a span tracer attached, then print the
/// self-time flame table plus the model's simulated-time attribution, and
/// verify the two reconcile (span self-times telescope to the simulator's
/// per-launch totals within 1e-9).
int cmd_profile(const Options& opt) {
  const Program program = load_input(opt);
  const SearchOutcome out = run_search(opt, program);

  const std::vector<SpanTracer::FlameRow> rows = out.spans->flame_table();
  std::map<std::string, double> cat_self;
  for (const SpanTracer::FlameRow& r : rows) cat_self[r.cat] += r.self_s;

  TextTable table({"span", "cat", "count", "total", "self", "self %"});
  for (const SpanTracer::FlameRow& r : rows) {
    const double total_self = cat_self[r.cat];
    table.add(r.name, r.cat, r.count, human_time(r.total_s), human_time(r.self_s),
              fixed(total_self > 0.0 ? 100.0 * r.self_s / total_self : 0.0, 1));
  }
  std::cout << table.to_string();
  std::cout << out.spans->recorded() << " spans on " << out.spans->threads_seen()
            << " threads";
  if (out.spans->dropped() > 0) std::cout << " (" << out.spans->dropped() << " dropped)";
  std::cout << "\n\n";

  TextTable model({"model component", "simulated", "share"});
  for (int c = 0; c < TimeBreakdown::kComponents; ++c) {
    const double share =
        out.model.total_s > 0.0 ? out.model.component_s[c] / out.model.total_s : 0.0;
    model.add(TimeBreakdown::component_name(c), human_time(out.model.component_s[c]),
              fixed(100.0 * share, 1));
  }
  std::cout << model.to_string();

  // Self-times over a span tree telescope to the root totals, so the
  // "model" rows of the flame table must sum to the simulator's plan time.
  const double model_flame_self = cat_self["model"];
  const double diff = std::fabs(model_flame_self - out.model.total_s);
  const bool ok = diff <= 1e-9;
  std::cout << "reconciliation: model span self-time "
            << strprintf("%.12g", model_flame_self) << " s vs simulator total "
            << strprintf("%.12g", out.model.total_s) << " s, |diff| "
            << strprintf("%.3g", diff) << (ok ? " (OK)" : " (FAIL)") << "\n";
  return ok ? 0 : 1;
}

/// `kfc explain K`: search with a provenance ring attached, then replay
/// every recorded decision that touched kernel K and show where it landed.
int cmd_explain(const Options& opt) {
  if (opt.explain_kernel < 0) {
    usage("explain needs a kernel id: kfc explain <kernel> (<file.kf> | --builtin NAME)");
  }
  const Program program = load_input(opt);
  if (opt.explain_kernel >= program.num_kernels()) {
    usage(strprintf("kernel %ld out of range (program has %d kernels)",
                    opt.explain_kernel, program.num_kernels()));
  }
  const SearchOutcome out = run_search(opt, program);
  const KernelId k = static_cast<KernelId>(opt.explain_kernel);

  const FusionPlan& best = out.result.best;
  const int g = best.group_of(k);
  std::cout << "kernel " << k << " '" << out.expansion.program.kernel(k).name
            << "' final group: {";
  std::span<const KernelId> members = best.group(g);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) std::cout << ",";
    std::cout << members[i];
  }
  std::cout << "} (" << members.size() << " kernels)\n";

  const std::vector<DecisionLog::Decision> chain = out.decisions->involving(k);
  if (chain.empty()) {
    std::cout << "no recorded decisions involve kernel " << k
              << " (it stayed a singleton or the ring wrapped past them)\n";
    return 0;
  }
  TextTable table({"seq", "site", "verdict", "delta cost", "dominant", "members"});
  for (const DecisionLog::Decision& d : chain) {
    std::string group_text;
    const int inline_count = std::min<int>(d.member_count, DecisionLog::kMaxMembers);
    for (int m = 0; m < inline_count; ++m) {
      if (m) group_text += ',';
      group_text += std::to_string(d.members[m]);
    }
    if (d.member_count > inline_count) group_text += ",...";
    table.add(static_cast<long>(d.seq), DecisionLog::to_string(d.site),
              d.accepted ? "accepted" : "rejected",
              strprintf("%+.3e s", d.cost_delta_s),
              *d.dominant != '\0' ? d.dominant : "-", group_text);
  }
  std::cout << table.to_string();
  std::cout << chain.size() << " decisions involve kernel " << k << " ("
            << out.decisions->recorded() << " recorded";
  if (static_cast<std::size_t>(out.decisions->recorded()) > out.decisions->size()) {
    std::cout << ", ring wrapped: oldest "
              << out.decisions->recorded() - static_cast<long>(out.decisions->size())
              << " overwritten";
  }
  std::cout << ")\n";
  return 0;
}

int cmd_search(const Options& opt) {
  const Program program = load_input(opt);
  const SearchOutcome out = run_search(opt, program);
  std::cout << out.result.best.to_string() << "\n";
  return 0;
}

int cmd_fuse(const Options& opt) {
  const Program program = load_input(opt);
  if (!program.fully_executable()) {
    std::cerr << "error: 'fuse' needs kernel bodies; use a builtin with bodies "
                 "(rk18, cloverleaf, fig3)\n";
    return 1;
  }
  const SearchOutcome out = run_search(opt, program);
  const EquivalenceReport report = verify_fusion(
      program, out.fused, out.expanded ? &out.expansion : nullptr, 1e-9);
  std::cerr << "functional equivalence: " << (report.equivalent ? "PASS" : "FAIL")
            << " (max |diff| " << report.max_abs_diff << ")\n";
  const CudaEmitter emitter(out.expansion.program);
  std::cout << emitter.emit_program(out.fused);
  return report.equivalent ? 0 : 1;
}

// ---- plan store & serving ------------------------------------------------

void print_recovery(std::ostream& os, const StoreRecovery& r) {
  os << "recovery: " << r.snapshot_records << " snapshot + " << r.journal_records
     << " journal records, " << r.quarantined << " quarantined, " << r.salvaged
     << " salvaged";
  if (r.torn_tail) os << ", torn tail dropped";
  if (r.snapshot_header_bad) os << ", snapshot header bad";
  os << (r.clean() ? " (clean)" : " (salvaged)") << "\n";
}

/// `kfc store stats|verify|compact --store DIR`.
int cmd_store(const Options& opt) {
  const std::string& sub = opt.input_file;  // bare argument after `store`
  if (opt.store_dir.empty()) usage("store needs --store DIR");
  if (sub.empty()) usage("store needs a subcommand: stats | verify | compact");

  if (sub == "verify") {
    // Read-only: same validation as recovery, no repair, no journal open.
    const StoreRecovery r = PlanStore::verify(opt.store_dir);
    std::cout << "store " << opt.store_dir << "\n";
    print_recovery(std::cout, r);
    return r.clean() ? 0 : 4;
  }
  if (sub != "stats" && sub != "compact") {
    usage("unknown store subcommand '" + sub + "' (stats | verify | compact)");
  }

  PlanStore store(PlanStore::Config{.dir = opt.store_dir});
  if (sub == "compact") {
    const PlanStore::Stats before = store.stats();
    store.compact();
    const PlanStore::Stats after = store.stats();
    std::cout << "compacted " << opt.store_dir << ": journal "
              << human_bytes(static_cast<double>(before.journal_bytes)) << " -> "
              << human_bytes(static_cast<double>(after.journal_bytes))
              << ", snapshot "
              << human_bytes(static_cast<double>(after.snapshot_bytes)) << " ("
              << after.plans << " plans)\n";
  } else {
    const PlanStore::Stats s = store.stats();
    TextTable table({"metric", "value"});
    table.add("plans", static_cast<long>(s.plans));
    table.add("journal records", static_cast<long>(s.journal_records));
    table.add("journal bytes", s.journal_bytes);
    table.add("snapshot bytes", s.snapshot_bytes);
    table.add("salvaged records", static_cast<long>(s.recovery.salvaged));
    table.add("quarantined records", static_cast<long>(s.recovery.quarantined));
    std::cout << "store " << opt.store_dir << "\n" << table.to_string();
  }
  print_recovery(std::cout, store.recovery());
  return store.recovery().clean() ? 0 : 4;
}

/// One parsed line of a serve-batch JSONL stream.
struct BatchRequest {
  std::string program = "rk18";
  std::string device;
  double deadline_s = 0.0;
  long max_evaluations = 0;
  int count = 1;
};

/// The tool's own validation stack for one (program, device) pair —
/// deliberately rebuilt from scratch, independent of the server's internal
/// context, so "the served plan is legal" is checked by code the server
/// did not touch.
struct ValidationStack {
  Program program;
  ExpansionResult expansion;
  DeviceSpec device;
  LegalityChecker checker;

  ValidationStack(Program p, const Options& opt, DeviceSpec dev)
      : program(std::move(p)),
        expansion(opt.expand ? expand_arrays(program, opt.mem_budget)
                             : ExpansionResult{.program = program,
                                               .arrays_added = 0,
                                               .extra_bytes = 0.0,
                                               .versions = {}}),
        device(std::move(dev)),
        checker(expansion.program, device) {}
};

/// `kfc serve-batch FILE.jsonl --store DIR`: replay a request stream
/// through the PlanServer and report the hit/degrade/latency distribution.
int cmd_serve_batch(const Options& opt) {
  if (opt.store_dir.empty()) usage("serve-batch needs --store DIR");
  if (opt.input_file.empty()) usage("serve-batch needs a FILE.jsonl request stream");
  std::ifstream in(opt.input_file);
  if (!in) usage("cannot open '" + opt.input_file + "'");

  // Telemetry: metrics and the SLO tracker are always on for serve-batch
  // (the latency percentiles, per-rung headroom and burn-rate report below
  // come from them); the trace log and span tracer stay opt-in.
  MetricsRegistry metrics;
  std::optional<TraceLog> trace_log;
  std::unique_ptr<SpanTracer> spans;
  SloTracker::Config slo_cfg;
  if (opt.slo_latency_target > 0.0)
    slo_cfg.latency_target_s = opt.slo_latency_target;
  SloTracker slo(slo_cfg);
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.slo = &slo;
  if (!opt.events_file.empty()) {
    trace_log.emplace(opt.events_file);
    telemetry.trace = &*trace_log;
  }
  if (!opt.spans_file.empty()) {
    spans = std::make_unique<SpanTracer>();
    telemetry.spans = spans.get();
  }

  // One clock domain for the server, the SLO sample timestamps, the flight
  // recorder and the report's "now", so rolling windows and in-flight ages
  // line up with the batch.
  Stopwatch batch_clock;

  // Flight recorder (README "Observability v4"): an always-on black box.
  // Armed here — before the store opens — so store-salvage incidents are
  // capturable, and the fatal-signal handler covers the whole batch.
  std::unique_ptr<FlightRecorder> recorder;
  std::unique_ptr<DecisionLog> decisions;
  if (!opt.recorder_dir.empty()) {
    make_dir(opt.recorder_dir);
    FlightRecorder::Config rcfg;
    rcfg.capacity = static_cast<std::size_t>(opt.recorder_cap);
    rcfg.clock = [&batch_clock] { return batch_clock.elapsed_s(); };
    rcfg.metrics = &metrics;
    recorder = std::make_unique<FlightRecorder>(rcfg);
    telemetry.recorder = recorder.get();
    recorder->arm_signal_dump(opt.recorder_dir);
    // Decision and serve-span streams tee into the ring so a bundle can
    // replay the last fusion decisions of the failing request's trace.
    decisions = std::make_unique<DecisionLog>();
    decisions->set_recorder(recorder.get());
    telemetry.decisions = decisions.get();
    if (spans != nullptr) spans->set_recorder(recorder.get());
  }

  PlanStore store(PlanStore::Config{
      .dir = opt.store_dir,
      .telemetry = &telemetry});

  if (recorder != nullptr) {
    const StoreRecovery& rec = store.recovery();
    StatePage& sp = recorder->state();
    sp.store_salvaged.store(static_cast<std::int64_t>(rec.salvaged),
                            std::memory_order_relaxed);
    sp.store_quarantined.store(static_cast<std::int64_t>(rec.quarantined),
                               std::memory_order_relaxed);
    if (!rec.clean()) {
      const std::string path = recorder->dump_incident(
          opt.recorder_dir, IncidentReason::kStoreSalvage);
      std::cerr << "flight recorder: store salvage incident -> " << path
                << "\n";
    }
  }

  PlanServerConfig cfg;
  cfg.clock = [&batch_clock] { return batch_clock.elapsed_s(); };
  cfg.admission.rate_per_s = opt.serve_rate;
  cfg.admission.burst = opt.serve_burst;
  cfg.max_queue_depth = opt.serve_queue;
  if (opt.serve_deadline > 0.0) cfg.default_deadline_s = opt.serve_deadline;
  cfg.max_retries = opt.serve_retries;
  cfg.min_search_budget_s = opt.min_search_budget;
  cfg.method = search_method_from_string(opt.method);
  cfg.hgga.population = opt.population;
  cfg.hgga.max_generations = opt.generations;
  cfg.hgga.stall_generations = opt.stall;
  cfg.hgga.seed = opt.seed;
  if (opt.max_evals > 0) cfg.default_max_evaluations = opt.max_evals;
  cfg.expand = opt.expand;
  cfg.mem_budget = opt.mem_budget;
  cfg.telemetry = &telemetry;
  PlanServer server(store, cfg);

  std::map<std::string, ValidationStack> stacks;  // keyed program|device
  /// Per-rung latency/headroom aggregation, indexed by ServeRung ordinal.
  struct RungAgg {
    std::vector<double> latencies_s;
    double min_headroom = 1.0;  ///< min of 1 - latency/deadline
    long deadline_misses = 0;
  };
  RungAgg rung_agg[SloTracker::kNumRungs];
  long total = 0;
  long legal = 0;

  // Parse the whole stream up front (std::map nodes are address-stable, so
  // items can point into `stacks`): the serial path replays in file order
  // exactly as before, and the worker path needs the full submission list
  // before fanning out.
  struct Item {
    const ValidationStack* stack = nullptr;
    ServeRequest req;
  };
  std::vector<Item> items;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    BatchRequest req;
    try {
      const JsonValue v = JsonValue::parse(t);
      req.program = v.string_or("program", req.program);
      req.device = v.string_or("device", opt.device);
      req.deadline_s = v.number_or("deadline_s", 0.0);
      req.max_evaluations = static_cast<long>(v.number_or("max_evaluations", 0.0));
      req.count = static_cast<int>(v.number_or("count", 1.0));
    } catch (const RuntimeError& e) {
      throw RuntimeError(strprintf("%s line %d: %s", opt.input_file.c_str(),
                                   line_no, e.what()));
    }
    const std::string stack_key = req.program + "|" + req.device;
    auto it = stacks.find(stack_key);
    if (it == stacks.end()) {
      // "program" is a .kf path when one exists, a builtin name otherwise.
      Program program;
      if (std::ifstream pf(req.program); pf) {
        program = read_program(pf);
      } else {
        program = load_builtin(req.program);
      }
      it = stacks
               .emplace(std::piecewise_construct, std::forward_as_tuple(stack_key),
                        std::forward_as_tuple(std::move(program), opt,
                                              load_device(req.device)))
               .first;
    }
    for (int c = 0; c < req.count; ++c) {
      Item item;
      item.stack = &it->second;
      item.req.deadline_s = req.deadline_s;
      item.req.max_evaluations = req.max_evaluations;
      items.push_back(item);
    }
  }
  if (items.empty()) usage("'" + opt.input_file + "' holds no requests");

  auto record = [&](const ValidationStack& stack, const ServeResult& r) {
    ++total;
    if (stack.checker.plan_is_legal(r.plan)) ++legal;
    RungAgg& agg = rung_agg[static_cast<int>(r.rung)];
    agg.latencies_s.push_back(r.latency_s);
    if (r.deadline_s > 0.0) {
      agg.min_headroom =
          std::min(agg.min_headroom, 1.0 - r.latency_s / r.deadline_s);
    }
    if (!r.deadline_met) ++agg.deadline_misses;
    // Continuous export: a scraper (or a human with `watch cat`) sees the
    // registry progress while the batch runs, not just at the end.
    if (!opt.prom_file.empty() && total % opt.prom_every == 0) {
      prometheus_write_file(metrics, opt.prom_file);
    }
  };

  ServeEngine::Stats engine_stats;
  Watchdog::Stats wd_stats;
  bool watchdog_ran = false;
  if (opt.workers <= 1) {
    // Serial replay: requests hit the server in file order, one at a time —
    // the deterministic reference the worker path is measured against.
    for (const Item& item : items)
      record(*item.stack, server.serve(item.stack->program, item.stack->device,
                                       item.req));
  } else {
    // Worker-pool replay. Backpressure, not shedding (shed_on_full=false):
    // a file replay wants every request served and outcomes bit-identical
    // to the serial path on store-hit workloads; use `--rate` admission to
    // exercise load shedding instead. Futures are collected in submission
    // order, so the report aggregates in file order no matter which worker
    // finished first.
    ServeEngineConfig ecfg;
    ecfg.workers = opt.workers;
    ecfg.queue_capacity = static_cast<std::size_t>(std::max(1, opt.queue_cap));
    ecfg.shed_on_full = false;
    if (opt.stall_request > 0 || opt.crash_request > 0) {
      // Fault injection for the incident-capture CI job: a sleeping worker
      // looks to the watchdog exactly like a wedged one; a raise() exercises
      // the fatal-signal dump path for real.
      const long stall_at = opt.stall_request;
      const long crash_at = opt.crash_request;
      const double stall_for = opt.stall_s;
      ecfg.test_job_hook = [stall_at, crash_at, stall_for](long ordinal, int) {
        if (crash_at > 0 && ordinal == crash_at) std::raise(SIGSEGV);
        if (stall_at > 0 && ordinal == stall_at)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(stall_for));
      };
    }
    ServeEngine engine(server, std::move(ecfg));
    std::unique_ptr<Watchdog> watchdog;
    if (recorder != nullptr &&
        (opt.watchdog_stall > 0.0 || opt.slo_max_burn > 0.0 ||
         opt.watchdog_spike > 0)) {
      WatchdogConfig wcfg;
      wcfg.scan_interval_s = opt.watchdog_interval;
      wcfg.stall_threshold_s = opt.watchdog_stall;
      wcfg.max_burn = opt.slo_max_burn;
      wcfg.miss_spike = opt.watchdog_spike;
      wcfg.dir = opt.recorder_dir;
      wcfg.recorder = recorder.get();
      wcfg.engine = &engine;
      wcfg.slo = &slo;
      wcfg.clock = [&batch_clock] { return batch_clock.elapsed_s(); };
      watchdog = std::make_unique<Watchdog>(std::move(wcfg));
      watchdog_ran = true;
    }
    std::vector<std::future<ServeResult>> futures;
    futures.reserve(items.size());
    for (const Item& item : items)
      futures.push_back(
          engine.submit(item.stack->program, item.stack->device, item.req));
    for (std::size_t i = 0; i < futures.size(); ++i)
      record(*items[i].stack, futures[i].get());
    engine.drain();
    engine_stats = engine.stats();
    if (watchdog != nullptr) {
      watchdog->stop();
      wd_stats = watchdog->stats();
    }
  }

  if (recorder != nullptr) {
    recorder->record_counters();
    if (opt.dump_on_exit) {
      const std::string path = recorder->dump_incident(
          opt.recorder_dir, IncidentReason::kExitDump);
      std::cerr << "flight recorder: exit dump -> " << path << "\n";
    }
    recorder->disarm_signal_dump();
    // Ring-eviction accounting for every bounded telemetry ring, exported
    // with the metrics so "the ring wrapped" is visible in artifacts.
    metrics.gauge("recorder.recorded",
                  static_cast<double>(recorder->recorded()));
    metrics.gauge("recorder.dropped",
                  static_cast<double>(recorder->dropped()));
    metrics.gauge("serve.log_dropped",
                  static_cast<double>(server.log().dropped()));
    if (decisions != nullptr)
      metrics.gauge("decisions.dropped",
                    static_cast<double>(decisions->dropped()));
    if (spans != nullptr)
      metrics.gauge("spans.dropped", static_cast<double>(spans->dropped()));
  }

  const PlanServer::Stats s = server.stats();
  // Latency percentiles come from the same histogram Prometheus exports
  // (serve.latency_seconds), not a side vector — one source of truth.
  const MetricsRegistry::HistogramSnapshot lat =
      metrics.histogram("serve.latency_seconds");
  // Per-rung percentiles still need the exact per-request samples.
  auto pct = [](std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank =
        (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (rank - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
  };

  std::cout << "serve-batch: " << total << " requests (" << opt.input_file
            << " -> " << opt.store_dir << ")\n";
  TextTable rungs({"rung", "requests", "share", "p50", "p95", "p99", "misses",
                   "min headroom"});
  const struct { const char* name; long n; } kRungRows[] = {
      {"store_hit", s.store_hits},
      {"polished_stored", s.polished},
      {"full_search", s.full_searches},
      {"trivial_floor", s.trivial},
  };
  for (int r = 0; r < SloTracker::kNumRungs; ++r) {
    RungAgg& agg = rung_agg[r];
    std::sort(agg.latencies_s.begin(), agg.latencies_s.end());
    const bool any = !agg.latencies_s.empty();
    rungs.add(kRungRows[r].name, kRungRows[r].n,
              fixed(100.0 * static_cast<double>(kRungRows[r].n) /
                        static_cast<double>(total), 1),
              any ? human_time(pct(agg.latencies_s, 50)) : "-",
              any ? human_time(pct(agg.latencies_s, 95)) : "-",
              any ? human_time(pct(agg.latencies_s, 99)) : "-",
              agg.deadline_misses,
              any ? fixed(100.0 * agg.min_headroom, 1) + "%" : "-");
  }
  std::cout << rungs.to_string();
  std::cout << "admission: "
            << total - s.queued - s.rejected - s.rejected_overload
            << " admitted, " << s.queued << " queued, " << s.rejected
            << " rejected, " << s.rejected_overload << " rejected_overload\n";
  if (opt.workers > 1) {
    std::cout << "workers: " << opt.workers << ", queue peak "
              << engine_stats.peak_queue_depth << "/" << opt.queue_cap
              << ", coalesced " << s.coalesced << " ("
              << s.coalesce_timeouts << " timed out)\n";
  }
  std::cout << "degraded " << s.degraded << ", retries " << s.retries
            << ", deadline_misses " << s.deadline_missed << "\n";
  if (recorder != nullptr) {
    std::cout << "incidents: "
              << recorder->state().incidents_total.load(
                     std::memory_order_relaxed)
              << " bundles in " << opt.recorder_dir << " (recorder: "
              << recorder->recorded() << " recorded, " << recorder->dropped()
              << " dropped)\n";
  }
  if (watchdog_ran) {
    std::cout << "watchdog: " << wd_stats.scans << " scans, "
              << wd_stats.stall_trips << " stalls, " << wd_stats.burn_trips
              << " burn trips, " << wd_stats.spike_trips << " miss spikes\n";
  }
  std::cout << "latency: p50 " << human_time(lat.percentile(50)) << ", p95 "
            << human_time(lat.percentile(95)) << ", p99 "
            << human_time(lat.percentile(99)) << ", max " << human_time(lat.max)
            << "\n";
  const SloTracker::Report slo_report = slo.report(batch_clock.elapsed_s());
  std::cout << slo_report.render();
  const PlanStore::Stats ss = store.stats();
  std::cout << "store: " << ss.plans << " plans, " << ss.hits << "/" << ss.gets
            << " hits, " << s.writebacks << " write-backs";
  if (s.writeback_failures > 0)
    std::cout << " (" << s.writeback_failures << " failed)";
  if (ss.write_faults > 0) std::cout << ", " << ss.write_faults << " write faults";
  std::cout << "\n";
  print_recovery(std::cout, store.recovery());
  std::cout << "legal " << legal << "/" << total << "\n";

  if (!opt.metrics_file.empty()) {
    JsonValue root = JsonValue::object();
    root.set("schema", "kfc-metrics/v3");
    const JsonValue series = metrics.to_json();
    for (const auto& [key, value] : series.members()) root.set(key, value);
    root.set("slo", slo_report.to_json());
    std::ofstream os(opt.metrics_file);
    KF_REQUIRE(static_cast<bool>(os),
               "cannot open metrics file '" << opt.metrics_file << "'");
    os << root.to_string(2) << "\n";
    std::cerr << "wrote " << opt.metrics_file << "\n";
  }
  if (!opt.prom_file.empty()) {
    prometheus_write_file(metrics, opt.prom_file);
    std::cerr << "wrote " << opt.prom_file << " (Prometheus text format)\n";
  }
  if (spans != nullptr) {
    ChromeTraceWriter writer;
    spans->append_chrome_trace(writer);
    std::ofstream spans_out(opt.spans_file);
    KF_REQUIRE(static_cast<bool>(spans_out),
               "cannot open spans file '" << opt.spans_file << "'");
    spans_out << writer.finish();
    std::cerr << "wrote " << opt.spans_file << " (" << spans->recorded()
              << " spans, " << spans->threads_seen() << " threads)\n";
  }
  if (!opt.events_file.empty()) {
    std::cerr << "wrote " << opt.events_file << " (" << trace_log->events()
              << " events)\n";
  }

  // Exit-code ladder (documented in `kfc help`): a verification failure
  // trumps everything, then SLO burn (only when the caller armed the gate
  // with --slo-max-burn) > rejected > degraded > salvaged.
  if (legal != total) return 1;
  if (opt.slo_max_burn > 0.0 && slo_report.worst_burn > opt.slo_max_burn) {
    std::cerr << strprintf(
        "slo: worst burn rate %.3f exceeds --slo-max-burn %.3f\n",
        slo_report.worst_burn, opt.slo_max_burn);
    return 7;
  }
  if (s.rejected + s.rejected_overload > 0) return 6;
  if (s.degraded > 0) return 5;
  if (!store.recovery().clean()) return 4;
  return 0;
}

/// ServeRung ordinal for a wide event's "rung" string; -1 when unknown
/// (SloTracker ignores out-of-range rungs, so forward-compatible).
int rung_index(const std::string& name) {
  static const char* const kNames[SloTracker::kNumRungs] = {
      "store_hit", "polished_stored", "full_search", "trivial_floor"};
  for (int r = 0; r < SloTracker::kNumRungs; ++r) {
    if (name == kNames[r]) return r;
  }
  return -1;
}

/// Replays a wide-event JSONL file through an SloTracker. Returns the
/// latest event timestamp (the report's "now"); torn/malformed lines are
/// skipped so a live file mid-append still reads.
double replay_wide_events(const std::string& path, SloTracker& tracker) {
  std::ifstream in(path);
  KF_CHECK(static_cast<bool>(in), "cannot open events file '" << path << "'");
  double last_ts = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    JsonValue event;
    try {
      event = JsonValue::parse(line);
    } catch (const RuntimeError&) {
      continue;  // torn tail of a live file
    }
    if (event.string_or("type", "") != "serve_request") continue;
    SloTracker::Sample sample;
    sample.t_s = event.number_or("ts", 0.0);
    sample.latency_s = event.number_or("latency_s", 0.0);
    const JsonValue* met = event.find("deadline_met");
    sample.deadline_met = met == nullptr || !met->is_bool() || met->as_bool();
    const JsonValue* degraded = event.find("degraded");
    sample.degraded =
        degraded != nullptr && degraded->is_bool() && degraded->as_bool();
    sample.rung = rung_index(event.string_or("rung", ""));
    tracker.record(sample);
    last_ts = std::max(last_ts, sample.t_s);
  }
  return last_ts;
}

/// `kfc slo`: render the SLO burn-rate report — from a kfc-metrics/v3
/// "slo" block (--metrics) or recomputed from the wide events (--events).
/// Exit 7 when --slo-max-burn is set and exceeded.
int cmd_slo(const Options& opt) {
  if (opt.metrics_file.empty() && opt.events_file.empty()) {
    usage("slo needs --metrics FILE (v3 slo block) and/or --events FILE "
          "(serve_request wide events)");
  }
  SloTracker::Report report;
  if (!opt.metrics_file.empty()) {
    std::ifstream in(opt.metrics_file);
    KF_CHECK(static_cast<bool>(in),
             "cannot open metrics file '" << opt.metrics_file << "'");
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    const JsonValue* block = doc.find("slo");
    KF_CHECK(block != nullptr,
             "no \"slo\" block in '" << opt.metrics_file
                                     << "' (needs a kfc-metrics/v3 document "
                                        "from `kfc serve-batch --metrics`)");
    report = SloTracker::from_json(*block);
  } else {
    SloTracker::Config cfg;
    if (opt.slo_latency_target > 0.0)
      cfg.latency_target_s = opt.slo_latency_target;
    SloTracker tracker(cfg);
    const double last_ts = replay_wide_events(opt.events_file, tracker);
    KF_CHECK(tracker.recorded() > 0,
             "'" << opt.events_file << "' holds no serve_request wide events");
    report = tracker.report(last_ts);
  }
  std::cout << report.render();
  if (opt.slo_max_burn > 0.0 && report.worst_burn > opt.slo_max_burn) {
    std::cout << strprintf("worst burn rate %.3f exceeds --slo-max-burn %.3f\n",
                           report.worst_burn, opt.slo_max_burn);
    return 7;
  }
  return 0;
}

/// `kfc postmortem BUNDLE.kfr [--json]`: parse a flight-recorder incident
/// bundle and print the automated diagnosis — ranked causes, the failing
/// request's trace id + stage ledger, and the last fusion decisions. Exit
/// 0 for a clean bundle, 4 when the bundle was truncated or had records
/// quarantined (diagnosis still printed), 3 when the file is not a bundle.
int cmd_postmortem(const Options& opt) {
  if (opt.input_file.empty())
    usage("postmortem needs a bundle file: kfc postmortem <bundle.kfr>");
  FlightBundle bundle;
  try {
    bundle = FlightRecorder::read(opt.input_file);
  } catch (const StoreError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  }
  const PostmortemReport report = analyze_bundle(bundle);
  if (opt.json_output)
    std::cout << report.to_json().to_string(2) << "\n";
  else
    std::cout << report.render();
  return report.exit_code();
}

/// `kfc top --events FILE`: a terminal view of a serve event log —
/// in-flight requests ("serve_start" markers minus "serve_request"
/// completions), the rung distribution, SLO burn over the rolling windows
/// and the most recent requests. One-shot by default; --follow re-reads
/// the (possibly still growing) file every --interval seconds.
int cmd_top(const Options& opt) {
  if (opt.events_file.empty())
    usage("top needs --events FILE (a serve-batch event log)");
  struct Recent {
    long seq = 0;
    std::string rung;
    double latency_s = 0.0;
    bool deadline_met = true;
    std::string trace;
  };
  for (;;) {
    std::ifstream in(opt.events_file);
    KF_CHECK(static_cast<bool>(in),
             "cannot open events file '" << opt.events_file << "'");
    long started = 0;
    long completed = 0;
    long rung_counts[SloTracker::kNumRungs] = {};
    std::vector<Recent> recent;  // bounded ring, newest last
    const std::size_t kRecent = 10;
    SloTracker::Config slo_cfg;
    if (opt.slo_latency_target > 0.0)
      slo_cfg.latency_target_s = opt.slo_latency_target;
    SloTracker tracker(slo_cfg);
    double last_ts = 0.0;
    std::string line;
    while (std::getline(in, line)) {
      if (trim(line).empty()) continue;
      JsonValue event;
      try {
        event = JsonValue::parse(line);
      } catch (const RuntimeError&) {
        continue;  // torn tail of a live file
      }
      const std::string type = event.string_or("type", "");
      if (type == "serve_start") {
        ++started;
      } else if (type == "serve_request") {
        ++completed;
        const std::string rung = event.string_or("rung", "?");
        if (const int r = rung_index(rung); r >= 0) ++rung_counts[r];
        SloTracker::Sample sample;
        sample.t_s = event.number_or("ts", 0.0);
        sample.latency_s = event.number_or("latency_s", 0.0);
        const JsonValue* met = event.find("deadline_met");
        sample.deadline_met =
            met == nullptr || !met->is_bool() || met->as_bool();
        const JsonValue* degraded = event.find("degraded");
        sample.degraded =
            degraded != nullptr && degraded->is_bool() && degraded->as_bool();
        sample.rung = rung_index(rung);
        tracker.record(sample);
        last_ts = std::max(last_ts, sample.t_s);
        Recent r;
        r.seq = static_cast<long>(event.number_or("seq", 0.0));
        r.rung = rung;
        r.latency_s = sample.latency_s;
        r.deadline_met = sample.deadline_met;
        r.trace = event.string_or("trace", "");
        if (recent.size() == kRecent) recent.erase(recent.begin());
        recent.push_back(std::move(r));
      }
    }
    std::ostringstream os;
    os << "kfc top — " << opt.events_file << "\n";
    os << "in-flight " << std::max<long>(0, started - completed)
       << ", completed " << completed << "\n";
    if (completed > 0) {
      static const char* const kNames[SloTracker::kNumRungs] = {
          "store_hit", "polished_stored", "full_search", "trivial_floor"};
      TextTable rungs({"rung", "requests", "share"});
      for (int r = 0; r < SloTracker::kNumRungs; ++r) {
        rungs.add(kNames[r], rung_counts[r],
                  fixed(100.0 * static_cast<double>(rung_counts[r]) /
                            static_cast<double>(completed), 1));
      }
      os << rungs.to_string();
      os << tracker.report(last_ts).render();
      TextTable table({"seq", "rung", "latency", "deadline", "trace"});
      for (const Recent& r : recent) {
        table.add(r.seq, r.rung, human_time(r.latency_s),
                  r.deadline_met ? "ok" : "MISS",
                  r.trace.empty() ? "-" : r.trace.substr(0, 16));
      }
      os << "last " << recent.size() << " requests:\n" << table.to_string();
    } else {
      os << "(no serve_request wide events yet)\n";
    }
    if (opt.follow) std::cout << "\033[H\033[2J";  // home + clear
    std::cout << os.str() << std::flush;
    if (!opt.follow) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.interval_s));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    // Armed before any input is read so the parser site covers load_input;
    // originals are profiled fault-free (see timing_simulator.cpp), so
    // arming early is safe for every site.
    ScopedFaultInjection inject(opt.injections);
    if (opt.command == "demo") return cmd_demo(opt);
    if (opt.command == "analyze") return cmd_analyze(opt);
    if (opt.command == "graphs") return cmd_graphs(opt);
    if (opt.command == "search") return cmd_search(opt);
    if (opt.command == "tune") return cmd_tune(opt);
    if (opt.command == "apply") return cmd_search(opt);  // --plan supplies it
    if (opt.command == "fuse") return cmd_fuse(opt);
    if (opt.command == "report") return cmd_report(opt);
    if (opt.command == "profile") return cmd_profile(opt);
    if (opt.command == "explain") return cmd_explain(opt);
    if (opt.command == "serve-batch") return cmd_serve_batch(opt);
    if (opt.command == "store") return cmd_store(opt);
    if (opt.command == "slo") return cmd_slo(opt);
    if (opt.command == "top") return cmd_top(opt);
    if (opt.command == "postmortem") return cmd_postmortem(opt);
    if (opt.command == "help" || opt.command == "--help" || opt.command == "-h") {
      print_usage(std::cout);
      return 0;
    }
    usage("unknown command '" + opt.command + "'");
  } catch (const kf::PreconditionError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;  // caller misuse: bad flags, illegal plan, bad config
  } catch (const kf::RuntimeError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 3;  // bad input data, I/O failure, unrecovered fault
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
