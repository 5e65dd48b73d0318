// The three workloads. Each is a closed loop driven from the calling thread
// and sized so one run of --seconds repeats its unit of work several times;
// a run starts no unit of work it could not finish within --seconds.
//
//   plan-scale-les  HGGA at `kfc search` defaults on SCALE-LES (142 kernels,
//                   K20X), every search from a fresh context.
//   serve-hits      store hits for 12 keys (SCALE-LES, WRF, ASUCA, MITgcm on
//                   three devices) through a one-worker ServeEngine, one
//                   request outstanding: `kfc serve-batch`'s serial replay.
//   serve-mixed     a seeded stream over Table V test-suite programs from an
//                   empty durable store: searches, polishes and write-backs
//                   beside hits, replayed by one client.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>

#include "bench.hpp"

namespace e2e {

void pin_to_cpu(long turn) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>(turn) % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

kf::Projection TimedModel::project_impl(const kf::Program& program,
                                        const kf::LaunchDescriptor& launch) const {
  const auto start = std::chrono::steady_clock::now();
  kf::Projection out = inner_.project(program, launch);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  ns_.fetch_add(static_cast<long>(ns.count()), std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Context::Context(const kf::Program& program, const kf::DeviceSpec& dev,
                 const kf::Telemetry* tel, bool timed_model)
    : label(program.name() + "/" + dev.name),
      expansion(in_span(tel, "bench.graph.expand",
                        [&] { return kf::expand_arrays(program, -1.0); })),
      device(dev),
      simulator(device),
      checker(in_span(tel, "bench.graph.checker_build", [&] {
        return kf::LegalityChecker(expansion.program, device);
      })),
      model(timed_model ? std::unique_ptr<kf::ProjectionModel>(
                              std::make_unique<TimedModel>(device))
                        : std::make_unique<kf::ProposedModel>(device)),
      objective(in_span(tel, "bench.search.objective_build", [&] {
        return kf::Objective(checker, *model, simulator);
      })) {
  {
    kf::SpanTracer::Scope span =
        kf::scoped_span(tel, "bench.search.objective_build", "bench");
    baseline_s = objective.baseline_cost();
  }
  objective.set_telemetry(tel);
  kf::SpanTracer::Scope span = kf::scoped_span(tel, "bench.store.fingerprint", "bench");
  key.program_fp = kf::program_fingerprint(expansion.program);
  key.device_fp = kf::device_fingerprint(device);
}

ServeStack::ServeStack(const std::string& dir, kf::SpanTracer* spans, int workers) {
  telemetry.metrics = &metrics;
  telemetry.slo = &slo;
  telemetry.spans = spans;
  store = in_span(&telemetry, "bench.store.open", [&] {
    return std::make_unique<kf::PlanStore>(
        kf::PlanStore::Config{.dir = dir, .telemetry = &telemetry});
  });
  kf::SpanTracer::Scope span = kf::scoped_span(&telemetry, "bench.serve.start", "bench");
  // PlanServerConfig defaults are serve-batch's, except that FullSearch
  // keeps the server's own greedy method (serve-batch passes --method).
  kf::PlanServerConfig config;
  config.telemetry = &telemetry;
  server = std::make_unique<kf::PlanServer>(*store, std::move(config));
  if (workers > 0) {
    kf::ServeEngineConfig engine_config;
    engine_config.workers = workers;
    engine_config.queue_capacity = 256;
    engine_config.shed_on_full = false;  // serve-batch's backpressure posture
    engine = std::make_unique<kf::ServeEngine>(*server, std::move(engine_config));
  }
}

void RunResult::note_speedup(double s) {
  log_speedup += std::log(s);
  ++speedups;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

namespace {

constexpr double kCostTolerance = 1e-9;  // relative; group sums may reorder

bool same_cost(double a, double b) {
  return std::fabs(a - b) <= kCostTolerance * std::max(std::fabs(a), std::fabs(b));
}

const std::array<kf::DeviceSpec, 3>& devices() {
  static const std::array<kf::DeviceSpec, 3> kAll = {
      kf::DeviceSpec::k20x(), kf::DeviceSpec::k40(), kf::DeviceSpec::gtx750ti()};
  return kAll;
}
constexpr int kDevices = 3;  // key k is program k / kDevices on device k % kDevices

kf::Telemetry spans_only(kf::SpanTracer* spans) {
  kf::Telemetry t;
  t.spans = spans;
  return t;
}

bool same_plan(const kf::FusionPlan& served, const kf::FusionPlan& canonical) {
  if (served == canonical) return true;
  kf::FusionPlan copy = served;
  copy.canonicalize();
  return copy == canonical;
}

std::string search_digest(const kf::SearchResult& s, const kf::Objective& objective) {
  const kf::Objective::CacheStats c = objective.cache_stats();
  return kf::strprintf(
      "plan %s\nevaluations %ld model_evaluations %ld generations %d best %.17g "
      "stop %s\ncache hits %ld misses %ld incremental %ld entries %zu "
      "quarantined %ld delta_hits %ld delta_full %ld\n",
      s.best.to_string().c_str(), s.evaluations, s.model_evaluations, s.generations,
      s.best_cost_s, kf::to_string(s.fault_report.stop_reason), c.hits, c.misses,
      c.incremental_hits, c.entries, c.quarantined, c.delta_hits,
      c.delta_full_recosts);
}

/// Checks every served response against the benchmark's own stacks: the
/// plan must be legal under the benchmark's checker (established once per
/// key, then every later response must equal it), the server's projected
/// speedup must match the benchmark's recomputation, and the stage ledger
/// must not exceed the latency. Also accounts failures and stage sums.
class ResponseCheck {
 public:
  ResponseCheck(RunResult& run, const kf::Telemetry* tel, std::size_t keys)
      : run_(run), tel_(tel), expected_(keys) {}

  /// Pins the plan a key must be served with (serve-hits: the stored one).
  void expect(int key, const kf::FusionPlan& plan) { establish(key, plan); }

  /// `counted`: the response is one of the workload's operations (warm-up
  /// responses are checked but not counted).
  void operator()(const kf::ServeResult& res, int key, bool counted = true) {
    Expected& e = expected_[static_cast<std::size_t>(key)];
    if (!e.set) {
      establish(key, res.plan);
    } else if (!same_plan(res.plan, e.plan)) {
      run_.violation(run_.contexts[static_cast<std::size_t>(key)]->label +
                     ": served plan differs from the first one served");
    }
    if (!same_cost(res.speedup(), e.speedup))
      run_.violation(kf::strprintf("%s: server speedup %.17g, benchmark recomputes %.17g",
                                   run_.contexts[static_cast<std::size_t>(key)]->label.c_str(),
                                   res.speedup(), e.speedup));
    double staged = 0.0;
    for (double s : res.stage_s) staged += s;
    if (staged > res.latency_s + 1e-9)
      run_.violation("serve stages sum beyond the request latency");
    if (!counted) return;
    ++run_.attempted;
    const bool rejected = res.admission == kf::AdmissionOutcome::Rejected ||
                          res.admission == kf::AdmissionOutcome::RejectedOverload;
    if (rejected || res.rung == kf::ServeRung::TrivialFloor || !res.deadline_met)
      ++run_.failed;
    run_.note_speedup(e.speedup);
    for (int s = 0; s < kf::RequestContext::kNumStages; ++s) stage_s_[s] += res.stage_s[s];
    unledgered_s_ += res.latency_s - staged;
    ++responses_;
  }

  /// Writes serve.stage.* and serve.unledgered_s as means per response.
  void finish() const {
    const double n = responses_ > 0 ? static_cast<double>(responses_) : 1.0;
    for (int s = 0; s < kf::RequestContext::kNumStages; ++s)
      run_.layer[std::string("serve.stage.") + kf::RequestContext::stage_name(s) + "_s"] =
          stage_s_[s] / n;
    run_.layer["serve.unledgered_s"] = unledgered_s_ / n;
  }

  const kf::FusionPlan& plan(int key) const {
    return expected_[static_cast<std::size_t>(key)].plan;
  }

 private:
  struct Expected {
    bool set = false;
    kf::FusionPlan plan;
    double speedup = 0.0;
  };

  void establish(int key, const kf::FusionPlan& plan) {
    const Context& ctx = *run_.contexts[static_cast<std::size_t>(key)];
    Expected& e = expected_[static_cast<std::size_t>(key)];
    e.set = true;
    e.plan = plan;
    e.plan.canonicalize();
    const bool legal = in_span(tel_, "bench.fusion.check_plan",
                               [&] { return ctx.checker.plan_is_legal(e.plan); });
    if (!legal) run_.violation(ctx.label + ": served plan is illegal");
    e.speedup = in_span(tel_, "bench.search.recost", [&] { return ctx.speedup(e.plan); });
  }

  RunResult& run_;
  const kf::Telemetry* tel_;
  std::vector<Expected> expected_;
  double stage_s_[kf::RequestContext::kNumStages] = {};
  double unledgered_s_ = 0.0;
  long responses_ = 0;
};

void record_server_stats(RunResult& r) {
  const kf::PlanServer::Stats s = r.serve->server->stats();
  const kf::PlanStore::Stats st = r.serve->store->stats();
  r.layer["serve.rung.store_hit"] = static_cast<double>(s.store_hits);
  r.layer["serve.rung.polished_stored"] = static_cast<double>(s.polished);
  r.layer["serve.rung.full_search"] = static_cast<double>(s.full_searches);
  r.layer["serve.rung.trivial_floor"] = static_cast<double>(s.trivial);
  r.layer["serve.degraded"] = static_cast<double>(s.degraded);
  r.layer["serve.deadline_missed"] = static_cast<double>(s.deadline_missed);
  r.layer["serve.coalesced"] = static_cast<double>(s.coalesced);
  r.layer["store.puts"] = static_cast<double>(st.puts);
  r.layer["store.journal_bytes"] = static_cast<double>(st.journal_bytes);
}

std::string stats_digest(const RunResult& r) {
  const kf::PlanServer::Stats s = r.serve->server->stats();
  return kf::strprintf(
      "requests %ld store_hit %ld polished %ld full_search %ld trivial %ld "
      "degraded %ld deadline_missed %ld writebacks %ld invalid_stored %ld\n",
      s.requests, s.store_hits, s.polished, s.full_searches, s.trivial, s.degraded,
      s.deadline_missed, s.writebacks, s.invalid_stored);
}

// ------------------------------------------------------ workload constants

constexpr int kHggaPopulation = 60;  // `kfc search` defaults
constexpr int kHggaGenerations = 300;
constexpr int kHggaStall = 90;
constexpr int kMinSearches = 3;  // repeats that must return one plan

// serve-batch replays serially on one worker by default; one request
// outstanding keeps that, so the engine adds its hand-off but no queue wait.
constexpr int kHitWorkers = 1;
constexpr long kHitUnitRequests = 8000;
constexpr std::size_t kHitWindow = 2000;  // requests; 20 beyond each p99
constexpr int kHitSegments = 4;  // fill -> restart -> serve cycles per run

constexpr int kMixedRequests = 1000;    // per replay; 10 beyond its p99
constexpr double kMixedDeadline = 10.0; // far above any polish: the ladder
                                        // never depends on the clock

std::vector<kf::Program> hit_programs() {
  return {kf::scale_les(), kf::wrf(), kf::asuca(), kf::mitgcm()};
}

/// Table V test-suite programs: 20-50 kernels, sharing sets of 2-8.
constexpr std::array<int, 4> kMixedSizes = {20, 30, 40, 50};
constexpr std::array<int, 3> kMixedSharing = {2, 4, 8};
constexpr int kMixedPrograms = static_cast<int>(kMixedSizes.size() * kMixedSharing.size());

std::vector<kf::Program> mixed_programs() {
  std::vector<kf::Program> out;
  for (int kernels : kMixedSizes) {
    for (int sharing : kMixedSharing) {
      kf::TestSuiteConfig config;
      config.kernels = kernels;
      config.arrays = 2 * kernels;
      config.sharing_set_size = sharing;
      out.push_back(kf::make_testsuite_program(config));
    }
  }
  return out;
}

/// Every key once plus uniform draws, shuffled by the seed. Devices are
/// then relabelled per program in first-touch order, which keeps the
/// stream's distribution but makes each program's first request search on
/// device 0 and its first requests on devices 1 and 2 polish: the ladder
/// does the same work for every seed, only the interleaving and the hits
/// differ.
std::vector<int> mixed_stream(std::uint64_t seed, int programs) {
  const int keys = programs * kDevices;
  kf::Rng rng(seed ^ 0x6d69786564ULL);
  std::vector<int> stream;
  for (int k = 0; k < keys; ++k) stream.push_back(k);
  while (static_cast<int>(stream.size()) < kMixedRequests)
    stream.push_back(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(keys))));
  rng.shuffle(stream);
  std::vector<std::array<int, kDevices>> label(static_cast<std::size_t>(programs),
                                               std::array<int, kDevices>{-1, -1, -1});
  std::vector<int> next(static_cast<std::size_t>(programs), 0);
  for (int& key : stream) {
    const auto p = static_cast<std::size_t>(key / kDevices);
    int& d = label[p][static_cast<std::size_t>(key % kDevices)];
    if (d < 0) d = next[p]++;
    key = static_cast<int>(p) * kDevices + d;
  }
  return stream;
}

void build_contexts(RunResult& r, const std::vector<kf::Program>& programs,
                    const kf::Telemetry* tel) {
  r.contexts.clear();
  for (const kf::Program& program : programs)
    for (const kf::DeviceSpec& device : devices())
      r.contexts.push_back(std::make_unique<Context>(program, device, tel));
}

}  // namespace

// ------------------------------------------------------------ plan-scale-les

RunResult run_plan_scale_les(const Options& opt, bool unit, kf::SpanTracer* spans) {
  const kf::Telemetry telemetry = spans_only(spans);
  const kf::Telemetry* tel = spans != nullptr ? &telemetry : nullptr;
  RunResult r;
  r.probe_device = kf::DeviceSpec::k20x();
  r.probe_program = in_span(tel, "bench.apps.generate", [] { return kf::scale_les(); });
  // Re-validation stack, independent of every searched context.
  r.contexts.push_back(std::make_unique<Context>(r.probe_program, r.probe_device, tel));
  const Context& check = *r.contexts.front();

  kf::DriverConfig config;
  config.method = kf::SearchMethod::Hgga;
  config.hgga.population = kHggaPopulation;
  config.hgga.max_generations = kHggaGenerations;
  config.hgga.stall_generations = kHggaStall;
  config.hgga.seed = opt.search_seed;
  r.probe_search = config;
  config.telemetry = tel;

  std::optional<kf::FusionPlan> first;
  const int min_searches = unit ? 1 : kMinSearches;
  double last_s = 0.0;
  kf::Stopwatch phase;
  for (int i = 0; i < min_searches || (!unit && phase.elapsed_s() + last_s <= opt.seconds);
       ++i) {
    pin_to_cpu(i);
    kf::Stopwatch watch;
    const kf::Program program =
        in_span(tel, "bench.apps.generate", [] { return kf::scale_les(); });
    const Context ctx(program, r.probe_device, tel);
    const double setup = watch.lap_s();
    kf::SearchResult result;
    bool ok = true;
    try {
      kf::SpanTracer::Scope span = kf::scoped_span(tel, "bench.search.run", "bench");
      result = kf::SearchDriver(ctx.objective, config).run();
    } catch (const std::exception&) {
      ok = false;
    }
    const double plan = watch.lap_s();
    last_s = setup + plan;
    r.setup_s.push_back(setup);
    r.plan_s.push_back(plan);
    r.latency_s.push_back(last_s);
    ++r.attempted;
    if (ok) {
      if (result.fault_report.stop_reason == kf::StopReason::FaultStorm) ok = false;
      const bool legal = in_span(tel, "bench.fusion.check_plan",
                                 [&] { return check.checker.plan_is_legal(result.best); });
      if (!legal) {
        ok = false;
        r.violation("plan-scale-les: search returned an illegal plan");
      }
      const double speedup =
          in_span(tel, "bench.search.recost", [&] { return check.speedup(result.best); });
      if (!same_cost(speedup, result.projected_speedup()))
        r.violation(kf::strprintf("plan-scale-les: search speedup %.17g, benchmark recomputes %.17g",
                                  result.projected_speedup(), speedup));
      r.note_speedup(speedup);
      if (!first) {
        first = result.best;
        r.digest = search_digest(result, ctx.objective);
        const kf::Objective::CacheStats cache = ctx.objective.cache_stats();
        r.layer["search.evaluations"] = static_cast<double>(result.evaluations);
        r.layer["search.model_evaluations"] = static_cast<double>(result.model_evaluations);
        r.layer["search.cache_hit_rate"] = cache.hit_rate();
        r.layer["search.generations"] = result.generations;
      } else if (!(result.best == *first)) {
        r.violation("plan-scale-les: repeated searches returned different plans");
      }
    }
    if (!ok) ++r.failed;
  }
  // One latency window over every search: a run holds too few to split.
  r.windows.push_back({0, r.latency_s.size(), phase.elapsed_s()});
  r.plans.push_back(first.value_or(kf::FusionPlan(check.expansion.program.num_kernels())));
  return r;
}

// ----------------------------------------------------------------- serve-hits

RunResult run_serve_hits(const Options& opt, bool unit, kf::SpanTracer* spans) {
  const kf::Telemetry telemetry = spans_only(spans);
  const kf::Telemetry* tel = spans != nullptr ? &telemetry : nullptr;
  RunResult r;
  const kf::Stopwatch since_start;
  const std::vector<kf::Program> sources = in_span(tel, "bench.apps.generate", hit_programs);
  build_contexts(r, sources, tel);
  const int keys = static_cast<int>(r.contexts.size());
  ResponseCheck check(r, tel, r.contexts.size());
  const std::string dir = opt.work_dir + "/serve-hits-store";
  std::filesystem::remove_all(dir);

  // Fills the durable store with one plan per key, found by the search the
  // server's FullSearch rung runs (greedy under the server's eval budget),
  // each on a fresh context (cold cache). Later fills only re-search and
  // must find the same plans. One time-to-plan sample per fill: the mean
  // over keys, which differ 8x in search time.
  kf::DriverConfig search;
  search.method = kf::SearchMethod::Greedy;
  search.limits.max_evaluations = kf::PlanServerConfig().default_max_evaluations;
  r.probe_program = sources.front();
  r.probe_device = devices().front();
  r.probe_search = search;
  search.telemetry = tel;
  auto fill = [&](bool write) {
    std::optional<kf::PlanStore> store;
    if (write) {
      kf::SpanTracer::Scope span = kf::scoped_span(tel, "bench.store.open", "bench");
      store.emplace(kf::PlanStore::Config{.dir = dir});
    }
    double search_s = 0.0;
    for (int k = 0; k < keys; ++k) {
      const Context ctx(sources[static_cast<std::size_t>(k / kDevices)],
                        devices()[static_cast<std::size_t>(k % kDevices)], tel);
      kf::Stopwatch watch;
      const kf::SearchResult result = in_span(
          tel, "bench.search.run", [&] { return kf::SearchDriver(ctx.objective, search).run(); });
      search_s += watch.elapsed_s();
      if (result.fault_report.stop_reason == kf::StopReason::FaultStorm)
        r.violation(ctx.label + ": fill search stopped on a fault storm");
      if (!write) {
        if (!same_plan(result.best, check.plan(k)))
          r.violation(ctx.label + ": repeated fill searches found different plans");
        continue;
      }
      check.expect(k, result.best);
      r.plans.push_back(check.plan(k));
      kf::StoredPlan stored;
      stored.key = ctx.key;
      stored.num_kernels = ctx.expansion.program.num_kernels();
      stored.plan_text = result.best.to_string();
      stored.best_cost_s = result.best_cost_s;
      stored.baseline_cost_s = result.baseline_cost_s;
      kf::SpanTracer::Scope span = kf::scoped_span(tel, "bench.store.put", "bench");
      store->put(std::move(stored));
    }
    r.plan_s.push_back(search_s / keys);
  };

  // The run cycles through fill -> restart -> serve, so its set-up and
  // time-to-plan samples spread over the run like its latency windows.
  // Segment s ends (s + 1) / kHitSegments of --seconds after the start.
  std::vector<kf::Program> programs;
  kf::Rng rng(opt.seed ^ 0x68697473ULL);
  const int segments = unit ? 1 : kHitSegments;
  for (int segment = 0; segment < segments; ++segment) {
    pin_to_cpu(segment);  // the engine's worker, started below, inherits it
    fill(segment == 0);

    // Restart a server over the filled store, as a deployment would, and
    // warm every key once.
    r.serve.reset();  // drains the previous engine before its programs go
    kf::Stopwatch watch;
    programs = in_span(tel, "bench.apps.generate", hit_programs);
    r.serve = std::make_unique<ServeStack>(dir, spans, kHitWorkers);
    for (int k = 0; k < keys; ++k) {
      const kf::ServeResult res = in_span(tel, "bench.serve.request", [&] {
        return r.serve->engine
            ->submit(programs[static_cast<std::size_t>(k / kDevices)],
                     devices()[static_cast<std::size_t>(k % kDevices)])
            .get();
      });
      if (res.rung != kf::ServeRung::StoreHit)
        r.violation(r.contexts[static_cast<std::size_t>(k)]->label + ": warm-up missed the store");
      check(res, k, /*counted=*/false);
    }
    r.setup_s.push_back(watch.elapsed_s());

    // Closed loop, one request outstanding, until this segment's share of
    // the run is used up (but for at least one latency window).
    kf::ServeEngine& engine = *r.serve->engine;
    const double segment_end_s = opt.seconds * (segment + 1) / segments;
    std::size_t window_begin = r.latency_s.size();
    kf::Stopwatch window;
    for (long served = 0;
         unit ? served < kHitUnitRequests
              : served < static_cast<long>(kHitWindow) || since_start.elapsed_s() < segment_end_s;
         ++served) {
      const int key = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(keys)));
      kf::Stopwatch latency;
      const kf::ServeResult res = in_span(tel, "bench.serve.request", [&] {
        return engine
            .submit(programs[static_cast<std::size_t>(key / kDevices)],
                    devices()[static_cast<std::size_t>(key % kDevices)])
            .get();
      });
      r.latency_s.push_back(latency.elapsed_s());
      if (r.latency_s.size() - window_begin == kHitWindow) {
        r.windows.push_back({window_begin, r.latency_s.size(), window.lap_s()});
        window_begin = r.latency_s.size();
      }
      check(res, key);
    }
  }
  check.finish();
  record_server_stats(r);
  for (int k = 0; k < keys; ++k) r.digest += check.plan(k).to_string() + "\n";
  if (unit) r.digest += stats_digest(r);
  return r;
}

// ---------------------------------------------------------------- serve-mixed

RunResult run_serve_mixed(const Options& opt, bool unit, kf::SpanTracer* spans) {
  const kf::Telemetry telemetry = spans_only(spans);
  const kf::Telemetry* tel = spans != nullptr ? &telemetry : nullptr;
  RunResult r;
  auto store_dir = [&](int replay) {
    return opt.work_dir + "/serve-mixed-store-" + std::to_string(replay);
  };

  const std::vector<int> stream = mixed_stream(opt.seed, kMixedPrograms);
  ResponseCheck check(r, tel, kMixedPrograms * kDevices);
  kf::ServeRequest request;
  request.deadline_s = kMixedDeadline;
  std::vector<kf::Program> programs;
  std::string first_replay;
  double last_s = 0.0;
  kf::Stopwatch phase;
  for (int replay = 0; replay < 1 || (!unit && phase.elapsed_s() + last_s <= opt.seconds);
       ++replay) {
    pin_to_cpu(replay);
    kf::Stopwatch replay_watch;
    // Set-up, once per replay: programs, the benchmark's checker contexts,
    // and an empty durable store under a new server. The replay then pays
    // the server's context builds, cold caches, searches, polishes and
    // write-backs.
    r.serve.reset();
    r.contexts.clear();
    if (replay > 0) std::filesystem::remove_all(store_dir(replay - 1));
    std::filesystem::remove_all(store_dir(replay));
    kf::Stopwatch watch;
    programs = in_span(tel, "bench.apps.generate", mixed_programs);
    build_contexts(r, programs, tel);
    r.serve = std::make_unique<ServeStack>(store_dir(replay), spans, 0);
    r.setup_s.push_back(watch.elapsed_s());

    kf::PlanServer& server = *r.serve->server;
    double search_s = 0.0;
    int searches = 0;
    kf::Stopwatch clock;
    for (int key : stream) {
      const double at = clock.elapsed_s();
      const kf::ServeResult res = in_span(tel, "bench.serve.request", [&] {
        return server.serve(programs[static_cast<std::size_t>(key / kDevices)],
                            devices()[static_cast<std::size_t>(key % kDevices)], request);
      });
      const double latency = clock.elapsed_s() - at;
      r.latency_s.push_back(latency);
      if (res.rung == kf::ServeRung::FullSearch) {
        search_s += latency;
        ++searches;
      }
      check(res, key);
    }
    r.windows.push_back({r.latency_s.size() - stream.size(), r.latency_s.size(), clock.elapsed_s()});
    // One sample per replay: the mean over its programs, which differ in size.
    if (searches > 0) r.plan_s.push_back(search_s / searches);
    const std::string digest = stats_digest(r);
    if (replay == 0) {
      first_replay = digest;
    } else if (digest != first_replay) {
      r.violation("serve-mixed: a replay of the same stream took other ladder steps");
    }
    last_s = replay_watch.elapsed_s();
  }
  check.finish();
  record_server_stats(r);
  r.probe_program = programs.front();
  r.probe_device = devices().front();
  r.probe_search.method = kf::SearchMethod::Greedy;
  r.probe_search.limits.max_evaluations = kf::PlanServerConfig().default_max_evaluations;
  r.digest = first_replay;
  for (std::size_t k = 0; k < r.contexts.size(); ++k) {
    r.plans.push_back(check.plan(static_cast<int>(k)));
    r.digest += r.plans.back().to_string() + "\n";
  }
  return r;
}

}  // namespace e2e
