// Tests for the telemetry subsystem: metrics registry (thread safety,
// histogram percentile math), JSONL trace log (round-trip, monotonic
// timestamps, zero-allocation disabled path), TimeBreakdown attribution
// (components sum to the predicted total), run-report aggregation, and the
// end-to-end HGGA threading (one event per generation; telemetry does not
// perturb the search).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "kf.hpp"

// ---- global allocation counter (for the disabled-sink zero-alloc test) ----
// Overriding the global operator new in this test binary lets the disabled
// telemetry path prove it allocates nothing.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kf {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CountersGaugesAndLabels) {
  MetricsRegistry reg;
  reg.count("evals");
  reg.count("evals", 4);
  reg.gauge("best", 2.5);
  reg.gauge("best", 1.5);  // last value wins
  reg.count("evals", 2, {{"kind", "fused"}});
  // label order must not matter: one series either way
  reg.count("multi", 1, {{"a", "1"}, {"b", "2"}});
  reg.count("multi", 1, {{"b", "2"}, {"a", "1"}});

  EXPECT_EQ(reg.counter_value("evals"), 5);
  EXPECT_EQ(reg.counter_value("evals", {{"kind", "fused"}}), 2);
  EXPECT_EQ(reg.counter_value("multi", {{"a", "1"}, {"b", "2"}}), 2);
  EXPECT_DOUBLE_EQ(reg.gauge_value("best"), 1.5);
  EXPECT_EQ(reg.counter_value("absent"), 0);
}

TEST(Metrics, HistogramExactStatsAndPercentiles) {
  MetricsRegistry reg;
  for (int i = 1; i <= 100; ++i) reg.observe("lat", static_cast<double>(i));
  const auto h = reg.histogram("lat");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // linear interpolation over the sorted samples (exact below capacity)
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.5);
  EXPECT_NEAR(h.percentile(90), 90.1, 1e-12);
}

TEST(Metrics, HistogramReservoirBoundsMemoryButKeepsExactAggregates) {
  MetricsRegistry reg;
  const int n = 50000;
  for (int i = 0; i < n; ++i) reg.observe("big", static_cast<double>(i));
  const auto h = reg.histogram("big");
  EXPECT_EQ(h.count, static_cast<std::size_t>(n));
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, n - 1.0);
  EXPECT_DOUBLE_EQ(h.sum, static_cast<double>(n) * (n - 1) / 2.0);
  EXPECT_LE(h.samples.size(), MetricsRegistry::kReservoirCapacity);
  // Reservoir percentile of a uniform ramp: within a few percent.
  EXPECT_NEAR(h.percentile(50), n / 2.0, 0.05 * n);
}

TEST(Metrics, ConcurrentHammerLosesNothing) {
  MetricsRegistry reg;
  const int iterations = 20000;
#pragma omp parallel for schedule(static)
  for (int i = 0; i < iterations; ++i) {
    reg.count("hits");
    reg.observe("sample", static_cast<double>(i % 97));
    if (i % 4 == 0) reg.count("quarter", 1, {{"site", "a"}});
  }
  EXPECT_EQ(reg.counter_value("hits"), iterations);
  EXPECT_EQ(reg.counter_value("quarter", {{"site", "a"}}), iterations / 4);
  EXPECT_EQ(reg.histogram("sample").count, static_cast<std::size_t>(iterations));
}

// Pinned small-count percentile behaviour: these exact results are part of
// the HistogramSnapshot contract (documented in metrics.hpp) — consumers
// like `kfc report` rely on them not to throw or surprise at n < 3.
TEST(Metrics, PercentilePinnedAtSmallSampleCounts) {
  MetricsRegistry reg;
  // n = 0: no data -> 0.0 for every p, no throw.
  const auto h0 = reg.histogram("absent");
  EXPECT_EQ(h0.count, 0u);
  EXPECT_DOUBLE_EQ(h0.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h0.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h0.percentile(100), 0.0);

  // n = 1: the sample for every p.
  reg.observe("one", 7.5);
  const auto h1 = reg.histogram("one");
  EXPECT_DOUBLE_EQ(h1.percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(h1.percentile(37), 7.5);
  EXPECT_DOUBLE_EQ(h1.percentile(100), 7.5);

  // n = 2: linear interpolation between the two.
  reg.observe("two", 10.0);
  reg.observe("two", 20.0);
  const auto h2 = reg.histogram("two");
  EXPECT_DOUBLE_EQ(h2.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(h2.percentile(25), 12.5);
  EXPECT_DOUBLE_EQ(h2.percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(h2.percentile(100), 20.0);

  // Out-of-range p is caller misuse.
  EXPECT_THROW(h2.percentile(-1), PreconditionError);
  EXPECT_THROW(h2.percentile(101), PreconditionError);
}

// Past reservoir overflow the sampled interior drifts, but p=0/p=100 must
// keep reporting the exactly-tracked extremes, and the reservoir itself
// must be deterministic (fixed-seed LCG) and bounded.
TEST(Metrics, PercentileExtremesExactPastReservoirOverflow) {
  MetricsRegistry a;
  MetricsRegistry b;
  const int n = static_cast<int>(MetricsRegistry::kReservoirCapacity) * 3;
  for (int i = 0; i < n; ++i) {
    const double sample = static_cast<double>((i * 7919) % n);
    a.observe("x", sample);
    b.observe("x", sample);
  }
  const auto ha = a.histogram("x");
  EXPECT_EQ(ha.samples.size(), MetricsRegistry::kReservoirCapacity);
  EXPECT_DOUBLE_EQ(ha.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(ha.percentile(100), n - 1.0);
  // Survivor extremes need not be the true extremes, but the pinned
  // endpoints must not depend on them.
  EXPECT_GE(ha.samples.front(), ha.percentile(0));
  EXPECT_LE(ha.samples.back(), ha.percentile(100));
  // Identical input -> identical reservoir: Algorithm R runs on a fixed
  // seed, so two registries agree sample-for-sample.
  EXPECT_EQ(ha.samples, b.histogram("x").samples);
}

TEST(Metrics, ToJsonCarriesAllSeries) {
  MetricsRegistry reg;
  reg.count("c", 3, {{"k", "v"}});
  reg.gauge("g", 1.25);
  reg.observe("h", 2.0);
  reg.observe("h", 4.0);
  const JsonValue doc = JsonValue::parse(reg.to_json_string());
  ASSERT_TRUE(doc.find("counters") != nullptr);
  const auto& counters = doc.find("counters")->items();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].string_or("name", ""), "c");
  EXPECT_EQ(counters[0].find("value")->as_long(), 3);
  const auto& hists = doc.find("histograms")->items();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_DOUBLE_EQ(hists[0].number_or("mean", 0), 3.0);
}

// ---------------------------------------------------------------- JSON

TEST(Json, RoundTripsValues) {
  const std::string text =
      R"({"a":1,"b":-2.5,"c":"x\"y\n","d":[true,false,null],"e":{"n":9007199254740992}})";
  const JsonValue v = JsonValue::parse(text);
  EXPECT_EQ(v.find("a")->as_long(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_number(), -2.5);
  EXPECT_EQ(v.find("c")->as_string(), "x\"y\n");
  EXPECT_EQ(v.find("d")->items().size(), 3u);
  const JsonValue again = JsonValue::parse(v.to_string());
  EXPECT_EQ(again.to_string(), v.to_string());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), RuntimeError);
  EXPECT_THROW(JsonValue::parse("[1,]"), RuntimeError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), RuntimeError);
}

TEST(Json, StringEscapeEdgeCases) {
  // Valid surrogate pair decodes to one supplementary-plane code point
  // (U+1F600, 4 UTF-8 bytes).
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xF0\x9F\x98\x80");
  // BMP escapes still work, upper- and lower-case hex alike.
  EXPECT_EQ(JsonValue::parse(R"("\u00e9\u00C9")").as_string(), "\xC3\xA9\xC3\x89");
  // Lone or mismatched surrogates are structural errors, not replacement
  // characters.
  EXPECT_THROW(JsonValue::parse(R"("\ud800")"), RuntimeError);
  EXPECT_THROW(JsonValue::parse(R"("\udc00")"), RuntimeError);
  EXPECT_THROW(JsonValue::parse(R"("\ud800A")"), RuntimeError);
  EXPECT_THROW(JsonValue::parse(R"("\ud800x")"), RuntimeError);
  // Truncated escapes.
  EXPECT_THROW(JsonValue::parse(R"("\u00")"), RuntimeError);
  EXPECT_THROW(JsonValue::parse("\"\\"), RuntimeError);
  // Raw (unescaped) control characters are rejected; the writer always
  // escapes them, so round-trips still work.
  EXPECT_THROW(JsonValue::parse("\"a\nb\""), RuntimeError);
  EXPECT_THROW(JsonValue::parse(std::string("\"a\0b\"", 5)), RuntimeError);
  std::string written;
  append_json_string(written, "a\nb\x01");
  EXPECT_EQ(JsonValue::parse(written).as_string(), "a\nb\x01");
}

TEST(Json, NumberEdgeCases) {
  // Out-of-double-range literals are rejected, not absorbed as inf.
  EXPECT_THROW(JsonValue::parse("1e999"), RuntimeError);
  EXPECT_THROW(JsonValue::parse("-1e999"), RuntimeError);
  // JSON has no NaN/Infinity literals.
  EXPECT_THROW(JsonValue::parse("NaN"), RuntimeError);
  EXPECT_THROW(JsonValue::parse("Infinity"), RuntimeError);
  EXPECT_THROW(JsonValue::parse("-Infinity"), RuntimeError);
  // Leading zeros are not a number.
  EXPECT_THROW(JsonValue::parse("01"), RuntimeError);
  EXPECT_THROW(JsonValue::parse("-01"), RuntimeError);
  // But a bare zero (with fraction/exponent) is.
  EXPECT_DOUBLE_EQ(JsonValue::parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-0.5e1").as_number(), -5.0);
  // Denormal-range underflow parses (strtod saturates to 0 or a denormal).
  EXPECT_NEAR(JsonValue::parse("1e-400").as_number(), 0.0, 1e-300);
}

// Every fixture in fixtures/bad/telemetry is a malformed telemetry-schema
// document; the parser must reject each with RuntimeError — never a crash,
// silent acceptance, or an unwrapped std exception.
TEST(Json, BadTelemetryFixtureCorpusAllRejected) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(KF_FIXTURE_DIR) / "bad" / "telemetry";
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << "cannot open " << entry.path();
    std::ostringstream text;
    text << in.rdbuf();
    try {
      JsonValue::parse(text.str());
      ADD_FAILURE() << name << " parsed without error";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("JSON parse error"), std::string::npos)
          << name << ": unexpected message '" << e.what() << "'";
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " threw non-RuntimeError: " << e.what();
    }
    ++checked;
  }
  EXPECT_GE(checked, 10) << "telemetry bad-input corpus shrank";
}

// ---------------------------------------------------------------- trace log

TEST(TraceLog, JsonlRoundTripWithMonotonicTimestamps) {
  std::ostringstream sink;
  TraceLog log(sink);
  for (int i = 0; i < 5; ++i) {
    log.emit("generation", [&](TraceEvent& e) {
      e.num("gen", i).num("best_cost_s", 1.0 / (i + 1)).str("note", "a\"b");
    });
  }
  log.emit("search_end", [&](TraceEvent& e) { e.boolean("recovered", false); });
  EXPECT_EQ(log.events(), 6);

  std::istringstream lines(sink.str());
  std::string line;
  double last_ts = -1.0;
  int n = 0;
  while (std::getline(lines, line)) {
    const JsonValue ev = JsonValue::parse(line);
    const double ts = ev.find("ts")->as_number();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (n < 5) {
      EXPECT_EQ(ev.string_or("type", ""), "generation");
      EXPECT_EQ(ev.find("gen")->as_long(), n);
      EXPECT_EQ(ev.find("note")->as_string(), "a\"b");
    }
    ++n;
  }
  EXPECT_EQ(n, 6);
}

TEST(TraceLog, DisabledSinkAllocatesNothing) {
  TraceLog disabled;
  EXPECT_FALSE(disabled.enabled());
  Telemetry none;  // all-null context, as carried by uninstrumented runs
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    disabled.emit("generation", [&](TraceEvent& e) {
      // never invoked: building these fields would allocate
      e.str("payload", std::string(256, 'x'));
    });
    if (none.wants_trace()) ADD_FAILURE() << "null context claims a trace";
    if (none.metrics != nullptr) ADD_FAILURE() << "null context claims metrics";
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(disabled.events(), 0);
}

TEST(TraceLog, ThrowsOnUnopenablePath) {
  EXPECT_THROW(TraceLog("/nonexistent-dir-kf/trace.jsonl"), RuntimeError);
}

// ---------------------------------------------------------------- stopwatch

TEST(Stopwatch, LapPartitionsElapsedTime) {
  Stopwatch w;
  double lap_sum = 0.0;
  for (int i = 0; i < 4; ++i) lap_sum += w.lap_s();
  const double elapsed = w.elapsed_s();
  EXPECT_GE(elapsed, lap_sum);         // laps never cover more than elapsed
  EXPECT_GE(lap_sum, 0.0);
  EXPECT_LE(elapsed - lap_sum, 0.25);  // the tail after the last lap is tiny
}

// ---------------------------------------------------------------- breakdown

TEST(TimeBreakdown, ComponentsSumToPredictedTotal) {
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  int checked = 0;
  for (const Program& program :
       {motivating_example(), shallow_water(), cloverleaf()}) {
    const LegalityChecker checker(program, device);
    // every original kernel...
    for (KernelId k = 0; k < program.num_kernels(); ++k) {
      const SimResult r = sim.run_original(program, k);
      ASSERT_TRUE(r.launchable);
      EXPECT_NEAR(r.breakdown.component_sum(), r.time_s, 1e-9 * r.time_s + 1e-15);
      EXPECT_DOUBLE_EQ(r.breakdown.total_s, r.time_s);
      ++checked;
    }
    // ... and every legal fused pair
    for (KernelId a = 0; a < program.num_kernels(); ++a) {
      for (KernelId b = a + 1; b < program.num_kernels(); ++b) {
        const std::vector<KernelId> group = {a, b};
        if (!checker.group_is_legal(group)) continue;
        const SimResult r = sim.run(program, checker.builder().build(group));
        if (!r.launchable) continue;
        EXPECT_NEAR(r.breakdown.component_sum(), r.time_s, 1e-9 * r.time_s + 1e-15);
        for (double c : {r.breakdown.gmem_traffic_s, r.breakdown.halo_s,
                         r.breakdown.latency_stall_s, r.breakdown.smem_s,
                         r.breakdown.barrier_s, r.breakdown.compute_s,
                         r.breakdown.launch_s}) {
          EXPECT_GE(c, 0.0);
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10);
}

// ------------------------------------------------------------ search thread

TEST(TelemetryThreading, OneGenerationEventPerGenerationAndNoPerturbation) {
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(program, device);
  const ProposedModel model(device);

  HggaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 12;
  cfg.stall_generations = 12;
  cfg.seed = 42;

  // bare run (no telemetry)
  Objective bare(checker, model, sim);
  const SearchResult plain = Hgga(bare, cfg).run();

  // instrumented run: same seed must give the same search
  Objective instrumented(checker, model, sim);
  MetricsRegistry metrics;
  std::ostringstream sink;
  TraceLog trace(sink);
  std::ostringstream progress;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.trace = &trace;
  telemetry.progress_every = 4;
  telemetry.progress = &progress;
  instrumented.set_telemetry(&telemetry);
  const SearchResult traced = Hgga(instrumented, cfg).run(nullptr, nullptr, &telemetry);

  EXPECT_DOUBLE_EQ(traced.best_cost_s, plain.best_cost_s);
  EXPECT_EQ(traced.generations, plain.generations);
  EXPECT_EQ(traced.best.to_string(), plain.best.to_string());

  // one "generation" event per generation, monotone ts
  std::istringstream lines(sink.str());
  std::string line;
  int generations = 0;
  int polish = 0;
  while (std::getline(lines, line)) {
    const JsonValue ev = JsonValue::parse(line);
    const std::string type = ev.string_or("type", "");
    if (type == "generation") ++generations;
    if (type == "local_polish") ++polish;
  }
  EXPECT_EQ(generations, traced.generations);
  EXPECT_EQ(polish, 1);
  EXPECT_EQ(metrics.counter_value("search.generations"), traced.generations);
  EXPECT_FALSE(progress.str().empty());
  EXPECT_NE(progress.str().find("[gen"), std::string::npos);

  // per-generation operator stats are recorded in the result trace
  ASSERT_EQ(traced.trace.size(), static_cast<std::size_t>(traced.generations));
  int crossovers = 0;
  for (const GenerationStats& s : traced.trace) {
    crossovers += s.crossovers;
    EXPECT_GE(s.worst_cost_s, s.mean_cost_s - 1e-18);
    EXPECT_GE(s.mean_cost_s, s.best_cost_s - 1e-18);
  }
  EXPECT_GT(crossovers, 0);
}

// ---------------------------------------------------------------- report

TEST(RunReport, AggregatesEventsAndMetrics) {
  const std::string dir = ::testing::TempDir();
  const std::string events_path = dir + "/kf_report_events.jsonl";
  const std::string metrics_path = dir + "/kf_report_metrics.json";
  {
    TraceLog log(events_path);
    log.emit("search_start", [&](TraceEvent& e) {
      e.str("method", "hgga").str("program", "demo").num("num_kernels", 4);
    });
    for (int g = 0; g < 3; ++g) {
      log.emit("generation", [&](TraceEvent& e) {
        e.num("gen", g)
            .num("best_cost_s", 1e-3 / (g + 1))
            .num("mean_cost_s", 2e-3)
            .num("worst_cost_s", 3e-3)
            .num("distinct_plans", 4)
            .num("mean_groups", 2.0)
            .num("evaluations", 100 * (g + 1));
      });
    }
    log.emit("fault_quarantine", [&](TraceEvent& e) {
      JsonValue members = JsonValue::array();
      members.push_back(JsonValue(1L));
      members.push_back(JsonValue(2L));
      e.str("fingerprint", "deadbeef").json("members", members).str("error", "boom");
    });
    log.emit("group_breakdown", [&](TraceEvent& e) {
      JsonValue members = JsonValue::array();
      members.push_back(JsonValue(0L));
      e.str("name", "Kern_A").json("members", members).num("total_s", 1e-4)
          .num("gmem_traffic_s", 8e-5).num("barrier_s", 2e-5);
    });
    log.emit("checkpoint_save",
             [&](TraceEvent& e) { e.num("generation", 3).str("file", "ck"); });
    log.emit("search_end", [&](TraceEvent& e) {
      e.str("stop_reason", "converged")
          .num("best_cost_s", 1e-3 / 3)
          .num("baseline_cost_s", 1e-3)
          .num("generations", 3)
          .num("evaluations", 300)
          .num("faults", 1)
          .num("runtime_s", 0.25);
    });
  }
  {
    MetricsRegistry reg;
    reg.count("search.generations", 3);
    JsonValue root = JsonValue::object();
    root.set("schema", "kfc-metrics/v1");
    JsonValue run = JsonValue::object();
    run.set("program", "demo");
    run.set("objective", "proposed");
    run.set("device", "k20x");
    root.set("run", std::move(run));
    const JsonValue series = reg.to_json();
    for (const auto& [key, value] : series.members()) root.set(key, value);
    std::ofstream os(metrics_path);
    os << root.to_string(2) << "\n";
  }

  const RunReport report = RunReport::from_files(metrics_path, events_path);
  EXPECT_TRUE(report.has_summary);
  EXPECT_EQ(report.program, "demo");
  EXPECT_EQ(report.method, "hgga");
  EXPECT_EQ(report.objective, "proposed");
  EXPECT_EQ(report.stop_reason, "converged");
  EXPECT_EQ(report.generations, 3);
  ASSERT_EQ(report.convergence.size(), 3u);
  EXPECT_DOUBLE_EQ(report.convergence[2].best_cost_s, 1e-3 / 3);
  ASSERT_EQ(report.quarantines.size(), 1u);
  EXPECT_EQ(report.quarantines[0].fingerprint, "deadbeef");
  EXPECT_EQ(report.quarantines[0].members, (std::vector<long>{1, 2}));
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_EQ(report.groups[0].name, "Kern_A");
  EXPECT_EQ(report.checkpoint_saves, 1);
  EXPECT_NEAR(report.projected_speedup(), 3.0, 1e-12);

  const std::string rendered = report.render(5);
  EXPECT_NE(rendered.find("convergence"), std::string::npos);
  EXPECT_NE(rendered.find("converged"), std::string::npos);
  EXPECT_NE(rendered.find("deadbeef"), std::string::npos);
  EXPECT_NE(rendered.find("Kern_A"), std::string::npos);
}

TEST(RunReport, MalformedJsonlNamesTheLine) {
  const std::string path = ::testing::TempDir() + "/kf_report_bad.jsonl";
  {
    std::ofstream os(path);
    os << "{\"ts\":0.1,\"type\":\"generation\",\"gen\":0}\n";
    os << "{not json\n";
  }
  try {
    RunReport::from_files("", path);
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace kf
