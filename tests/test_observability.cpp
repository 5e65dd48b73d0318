// Tests for the observability layer added on top of the telemetry core:
// the span profiler (nesting, self-time, bounded buffer, Chrome trace
// export, simulated-time reconciliation), the fusion decision provenance
// ring, the projection calibration tracker (bucket stats, drift latch,
// metrics-v2 block), the zero-allocation disabled paths, bit-identical
// same-seed searches with sinks attached vs. detached, and run-report
// ingestion of the new "decision" / "calibration_drift" events.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kf.hpp"

// ---- global allocation counter (for the disabled-path zero-alloc test) ----
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

const SpanTracer::FlameRow* find_row(const std::vector<SpanTracer::FlameRow>& rows,
                                     const std::string& cat,
                                     const std::string& name) {
  for (const SpanTracer::FlameRow& r : rows) {
    if (r.cat == cat && r.name == name) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------- spans

TEST(SpanTracer, NestsAndComputesSelfTime) {
  SpanTracer tracer;
  {
    SpanTracer::Scope outer = tracer.span("outer");
    { SpanTracer::Scope inner = tracer.span("inner", "cache"); }
    { SpanTracer::Scope inner = tracer.span("inner", "cache"); }
  }
  EXPECT_EQ(tracer.recorded(), 3);
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.threads_seen(), 1);

  const auto rows = tracer.flame_table();
  ASSERT_EQ(rows.size(), 2u);
  const SpanTracer::FlameRow* outer = find_row(rows, "search", "outer");
  const SpanTracer::FlameRow* inner = find_row(rows, "cache", "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1);
  EXPECT_EQ(inner->count, 2);
  EXPECT_GE(outer->total_s, inner->total_s);
  // Self time is the span's duration minus its direct children's.
  EXPECT_NEAR(outer->self_s, outer->total_s - inner->total_s, 1e-15);
  EXPECT_DOUBLE_EQ(inner->self_s, inner->total_s);
}

TEST(SpanTracer, ScopeEarlyEndIsIdempotentAndInertScopesAreInert) {
  SpanTracer tracer;
  SpanTracer::Scope s = tracer.span("a");
  EXPECT_TRUE(s.active());
  s.end();
  EXPECT_FALSE(s.active());
  s.end();  // second end() is a no-op
  EXPECT_EQ(tracer.recorded(), 1);

  SpanTracer::Scope inert;
  EXPECT_FALSE(inert.active());
  { SpanTracer::Scope none = scoped_span(nullptr, "x"); EXPECT_FALSE(none.active()); }
  Telemetry no_spans;
  { SpanTracer::Scope none = scoped_span(&no_spans, "x"); EXPECT_FALSE(none.active()); }
}

TEST(SpanTracer, BoundedBufferCountsDropsInsteadOfGrowing) {
  SpanTracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    SpanTracer::Scope s = tracer.span("s");
  }
  EXPECT_EQ(tracer.recorded(), 4);
  EXPECT_EQ(tracer.dropped(), 6);
  EXPECT_EQ(tracer.capacity(), 4u);
  // Dropped spans return inert scopes, so closing them is harmless.
  const auto rows = tracer.flame_table();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].count, 4);
}

TEST(SpanTracer, ChromeExportIsValidTraceEventJson) {
  SpanTracer tracer;
  {
    SpanTracer::Scope a = tracer.span("a");
    { SpanTracer::Scope b = tracer.span("b", "cache"); }
  }
  const long parent = tracer.virtual_span("launch", "model", 0, 0.0, 2e-3);
  ASSERT_GE(parent, 0);
  tracer.virtual_span("gmem_traffic", "model", 0, 0.0, 1e-3, parent);

  const std::string json = tracer.to_chrome_trace_json();
  const JsonValue doc = JsonValue::parse(json);
  ASSERT_TRUE(doc.is_array());
  int complete = 0;
  int metadata = 0;
  std::set<long> pids;
  for (const JsonValue& event : doc.items()) {
    const std::string ph = event.string_or("ph", "");
    if (ph == "X") {
      ++complete;
      pids.insert(static_cast<long>(event.number_or("pid", -1)));
      EXPECT_GE(event.number_or("dur", -1.0), 0.0);
      EXPECT_GE(event.number_or("ts", -1.0), 0.0);
      EXPECT_FALSE(event.string_or("name", "").empty());
      EXPECT_FALSE(event.string_or("cat", "").empty());
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 4);
  EXPECT_GE(metadata, 2);  // at least both process_name records
  // Wall spans under the search pid, virtual spans under the model pid.
  EXPECT_TRUE(pids.count(ChromeTraceWriter::kSearchPid));
  EXPECT_TRUE(pids.count(ChromeTraceWriter::kModelPid));
  EXPECT_FALSE(pids.count(ChromeTraceWriter::kDevicePid));
}

TEST(SpanTracer, ThreadsGetDistinctDenseTids) {
  SpanTracer tracer;
  const int num_threads = 4;
  std::vector<std::thread> workers;
  for (int i = 0; i < num_threads; ++i) {
    workers.emplace_back([&tracer] {
      SpanTracer::Scope s = tracer.span("worker");
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(tracer.threads_seen(), num_threads);
  EXPECT_EQ(tracer.recorded(), num_threads);

  const JsonValue doc = JsonValue::parse(tracer.to_chrome_trace_json());
  std::set<long> tids;
  for (const JsonValue& event : doc.items()) {
    if (event.string_or("ph", "") == "X") {
      tids.insert(static_cast<long>(event.number_or("tid", -1)));
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(num_threads));
}

// ------------------------------------------------------------- model spans

// The virtual spans emitted for the final plan must reconcile exactly with
// the simulator's TimeBreakdown: per-component flame totals equal the
// summed component seconds, and (since self-times over a span tree
// telescope to the root totals) the "model" self-time sum equals the
// summed launch totals. This is the invariant `kfc profile` asserts.
TEST(ModelSpans, ReconcileWithTimeBreakdownSums) {
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(program, device);
  const ProposedModel model(device);
  Objective objective(checker, model, sim);
  const SearchResult result = greedy_search(objective);
  const FusedProgram fused = apply_fusion(checker, result.best);

  SpanTracer tracer;
  const ModelSpanSummary summary =
      emit_model_spans(tracer, sim, program, fused.launches);
  ASSERT_EQ(summary.launches, static_cast<int>(fused.launches.size()));
  ASSERT_GT(summary.total_s, 0.0);
  // TimeBreakdown's own invariant carries through the summary.
  EXPECT_NEAR(summary.component_sum(), summary.total_s,
              1e-9 * summary.total_s + 1e-15);

  const auto rows = tracer.flame_table();
  double model_self = 0.0;
  for (const SpanTracer::FlameRow& r : rows) {
    if (r.cat == "model") model_self += r.self_s;
  }
  EXPECT_NEAR(model_self, summary.total_s, 1e-9);

  // Per-component rows match the summary sums bit-for-bit (identical
  // accumulation order).
  for (int c = 0; c < TimeBreakdown::kComponents; ++c) {
    const SpanTracer::FlameRow* row =
        find_row(rows, "model", TimeBreakdown::component_name(c));
    const double row_total = row != nullptr ? row->total_s : 0.0;
    EXPECT_DOUBLE_EQ(row_total, summary.component_s[c])
        << TimeBreakdown::component_name(c);
  }
}

TEST(TimeBreakdown, ComponentIndexingMatchesFields) {
  TimeBreakdown b;
  b.gmem_traffic_s = 1.0;
  b.halo_s = 2.0;
  b.latency_stall_s = 3.0;
  b.smem_s = 4.0;
  b.barrier_s = 5.0;
  b.compute_s = 6.0;
  b.launch_s = 7.0;
  double sum = 0.0;
  for (int c = 0; c < TimeBreakdown::kComponents; ++c) {
    EXPECT_NE(TimeBreakdown::component_name(c), std::string("?"));
    sum += b.component(c);
  }
  EXPECT_DOUBLE_EQ(sum, 28.0);
  EXPECT_DOUBLE_EQ(b.component(0), 1.0);
  EXPECT_DOUBLE_EQ(b.component(6), 7.0);
  EXPECT_EQ(b.dominant_component(), 6);  // launch_s is the largest
  EXPECT_STREQ(TimeBreakdown::component_name(b.dominant_component()), "launch");
  b.halo_s = 100.0;
  EXPECT_STREQ(TimeBreakdown::component_name(b.dominant_component()), "halo");
}

// ------------------------------------------------------------- provenance

TEST(DecisionLog, RingOverwritesOldestAndExposesTruncation) {
  DecisionLog log(4);
  for (KernelId k = 0; k < 6; ++k) {
    const KernelId members[] = {k, static_cast<KernelId>(k + 100)};
    log.record(DecisionLog::Site::GreedyMerge, k % 2 == 0, members,
               -1.0 * k, "halo");
  }
  EXPECT_EQ(log.recorded(), 6);
  EXPECT_EQ(log.size(), 4u);

  const auto held = log.snapshot();
  ASSERT_EQ(held.size(), 4u);
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].seq, i + 2);  // oldest two were overwritten
  }
  EXPECT_TRUE(log.involving(0).empty());  // seq 0 is gone
  const auto last = log.involving(5);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].seq, 5u);
  EXPECT_FALSE(last[0].accepted);
  EXPECT_DOUBLE_EQ(last[0].cost_delta_s, -5.0);
  EXPECT_STREQ(last[0].dominant, "halo");
  EXPECT_TRUE(last[0].involves(105));
}

TEST(DecisionLog, InlineMembersCappedButCountStaysExact) {
  DecisionLog log;
  std::vector<KernelId> members(DecisionLog::kMaxMembers + 4);
  std::iota(members.begin(), members.end(), 0);
  log.record(DecisionLog::Site::PolishMerge, true, members, -2.5);

  const auto held = log.snapshot();
  ASSERT_EQ(held.size(), 1u);
  const DecisionLog::Decision& d = held[0];
  EXPECT_EQ(d.member_count, DecisionLog::kMaxMembers + 4);
  EXPECT_TRUE(d.involves(0));
  EXPECT_TRUE(d.involves(DecisionLog::kMaxMembers - 1));
  // Members past the inline cap are not held (the count still says so).
  EXPECT_FALSE(d.involves(DecisionLog::kMaxMembers + 3));
  EXPECT_STREQ(d.dominant, "");
}

TEST(DecisionLog, SiteNamesAreStable) {
  // These strings are schema: they appear in "decision" events and in
  // `kfc explain` output.
  EXPECT_STREQ(DecisionLog::to_string(DecisionLog::Site::GreedyMerge),
               "greedy_merge");
  EXPECT_STREQ(DecisionLog::to_string(DecisionLog::Site::GreedyReject),
               "greedy_reject");
  EXPECT_STREQ(DecisionLog::to_string(DecisionLog::Site::CrossoverInject),
               "crossover_inject");
  EXPECT_STREQ(DecisionLog::to_string(DecisionLog::Site::MutationMerge),
               "mutation_merge");
  EXPECT_STREQ(DecisionLog::to_string(DecisionLog::Site::PolishSplit),
               "polish_split");
}

// ------------------------------------------------------------ calibration

TEST(Calibration, BucketsStatsAndSignBias) {
  EXPECT_EQ(CalibrationTracker::bucket_of(2), 0);
  EXPECT_EQ(CalibrationTracker::bucket_of(3), 1);
  EXPECT_EQ(CalibrationTracker::bucket_of(4), 2);
  EXPECT_EQ(CalibrationTracker::bucket_of(5), 3);
  EXPECT_EQ(CalibrationTracker::bucket_of(8), 3);
  EXPECT_EQ(CalibrationTracker::bucket_of(9), 4);
  EXPECT_EQ(CalibrationTracker::bucket_of(100), 4);

  CalibrationTracker tracker;
  EXPECT_FALSE(tracker.record(2, 1.1, 1.0).has_value());  // +10%
  EXPECT_FALSE(tracker.record(2, 0.9, 1.0).has_value());  // -10%
  EXPECT_FALSE(tracker.record(6, 2.0, 1.0).has_value());  // +100%, bucket 5-8
  // Invalid samples are ignored, not propagated.
  tracker.record(2, 1.0, 0.0);
  tracker.record(2, std::nan(""), 1.0);
  EXPECT_EQ(tracker.samples(), 3);
  EXPECT_FALSE(tracker.any_drift());

  const auto stats = tracker.stats();
  ASSERT_EQ(stats.size(), 2u);  // empty buckets omitted
  const CalibrationTracker::BucketStats& pairs = stats[0];
  EXPECT_STREQ(pairs.label, "2");
  EXPECT_EQ(pairs.count, 2);
  EXPECT_NEAR(pairs.mean_rel_error, 0.0, 1e-12);
  EXPECT_NEAR(pairs.mean_abs_rel_error, 0.1, 1e-12);
  EXPECT_NEAR(pairs.min_rel_error, -0.1, 1e-12);
  EXPECT_NEAR(pairs.max_rel_error, 0.1, 1e-12);
  EXPECT_EQ(pairs.overestimates, 1);
  EXPECT_EQ(pairs.underestimates, 1);
  EXPECT_DOUBLE_EQ(pairs.sign_bias(), 0.0);
  const CalibrationTracker::BucketStats& mid = stats[1];
  EXPECT_STREQ(mid.label, "5-8");
  EXPECT_EQ(mid.count, 1);
  EXPECT_NEAR(mid.mean_rel_error, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(mid.sign_bias(), 1.0);
}

TEST(Calibration, DriftLatchesOncePerBucketAfterMinSamples) {
  CalibrationTracker::Options options;
  options.drift_band = 0.5;
  options.min_samples = 4;
  options.reservoir = 16;
  CalibrationTracker tracker(options);

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(tracker.record(2, 2.0, 1.0).has_value());  // +100%, n < min
  }
  const auto drift = tracker.record(2, 2.0, 1.0);  // 4th sample trips it
  ASSERT_TRUE(drift.has_value());
  EXPECT_EQ(drift->bucket, 0);
  EXPECT_EQ(drift->count, 4);
  EXPECT_NEAR(drift->mean_rel_error, 1.0, 1e-12);
  // Latched: further samples in the same bucket never re-report.
  EXPECT_FALSE(tracker.record(2, 2.0, 1.0).has_value());
  EXPECT_TRUE(tracker.any_drift());
  // Another bucket latches independently.
  for (int i = 0; i < 3; ++i) tracker.record(9, 3.0, 1.0);
  EXPECT_TRUE(tracker.record(9, 3.0, 1.0).has_value());

  const auto stats = tracker.stats();
  for (const auto& b : stats) EXPECT_TRUE(b.drift) << b.label;
}

TEST(Calibration, MetricsV2BlockCarriesPerBucketErrors) {
  CalibrationTracker tracker;
  tracker.record(2, 1.2, 1.0);
  tracker.record(2, 1.1, 1.0);
  tracker.record(4, 0.5, 1.0);

  const JsonValue block = JsonValue::parse(tracker.to_json().to_string());
  EXPECT_EQ(static_cast<long>(block.number_or("samples", 0)), 3);
  EXPECT_GT(block.number_or("drift_band", 0.0), 0.0);
  ASSERT_TRUE(block.find("drift") != nullptr);
  EXPECT_FALSE(block.find("drift")->as_bool());
  const JsonValue* buckets = block.find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items().size(), 2u);
  const JsonValue& pairs = buckets->items()[0];
  EXPECT_EQ(pairs.string_or("group_size", ""), "2");
  EXPECT_EQ(static_cast<long>(pairs.number_or("count", 0)), 2);
  EXPECT_NEAR(pairs.number_or("mean_rel_error", 0.0), 0.15, 1e-12);
  EXPECT_NEAR(pairs.number_or("sign_bias", 0.0), 1.0, 1e-12);
  const JsonValue& quads = buckets->items()[1];
  EXPECT_EQ(quads.string_or("group_size", ""), "4");
  EXPECT_NEAR(quads.number_or("mean_rel_error", 0.0), -0.5, 1e-12);
  EXPECT_NEAR(quads.number_or("sign_bias", 0.0), -1.0, 1e-12);
}

// ------------------------------------------------------------- zero-alloc

TEST(Observability, DisabledPathsAllocateNothing) {
  Telemetry none;  // all-null context, as carried by uninstrumented runs
  EXPECT_FALSE(none.active());
  EXPECT_FALSE(none.wants_decisions());
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    { SpanTracer::Scope s = scoped_span(&none, "hot"); }
    { SpanTracer::Scope s = scoped_span(nullptr, "hot"); }
    if (none.spans != nullptr) ADD_FAILURE() << "null context claims spans";
    if (none.decisions != nullptr) ADD_FAILURE() << "null context claims decisions";
    if (none.calibration != nullptr) ADD_FAILURE() << "null context claims calibration";
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

// ------------------------------------------------------ search bit-identity

// Attaching the new sinks must not change what the search computes: same
// seed, same best plan, same cost — and the same evaluation meters.

void expect_same_counters(const SearchResult& traced, const Objective& instrumented,
                          const SearchResult& plain, const Objective& bare) {
  EXPECT_EQ(traced.evaluations, plain.evaluations);
  EXPECT_EQ(traced.model_evaluations, plain.model_evaluations);
  const Objective::CacheStats t = instrumented.cache_stats();
  const Objective::CacheStats p = bare.cache_stats();
  EXPECT_EQ(t.evaluations, p.evaluations);
  EXPECT_EQ(t.hits, p.hits);
  EXPECT_EQ(t.misses, p.misses);
  EXPECT_EQ(t.entries, p.entries);
}

TEST(Observability, HggaSameSeedBitIdenticalWithSinksAttached) {
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(program, device);
  const ProposedModel model(device);

  HggaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 10;
  cfg.stall_generations = 10;
  cfg.seed = 42;

  Objective bare(checker, model, sim);
  const SearchResult plain = Hgga(bare, cfg).run();

  Objective instrumented(checker, model, sim);
  SpanTracer spans;
  DecisionLog decisions;
  CalibrationTracker calibration;
  Telemetry telemetry;
  telemetry.spans = &spans;
  telemetry.decisions = &decisions;
  telemetry.calibration = &calibration;
  EXPECT_TRUE(telemetry.active());
  instrumented.set_telemetry(&telemetry);
  const SearchResult traced = Hgga(instrumented, cfg).run(nullptr, nullptr, &telemetry);

  // The outcome is bit-identical, and so are the meters.
  EXPECT_DOUBLE_EQ(traced.best_cost_s, plain.best_cost_s);
  EXPECT_DOUBLE_EQ(traced.baseline_cost_s, plain.baseline_cost_s);
  EXPECT_EQ(traced.generations, plain.generations);
  EXPECT_EQ(traced.best.to_string(), plain.best.to_string());
  expect_same_counters(traced, instrumented, plain, bare);

  // ...and the sinks actually observed the run.
  EXPECT_GT(spans.recorded(), 0);
  EXPECT_NE(find_row(spans.flame_table(), "search", "hgga.generation"), nullptr);
  EXPECT_GT(decisions.recorded(), 0);
  bool saw_crossover = false;
  for (const auto& d : decisions.snapshot()) {
    if (d.site == DecisionLog::Site::CrossoverInject) saw_crossover = true;
  }
  EXPECT_TRUE(saw_crossover);
}

TEST(Observability, BreedCountersRepeatExactlyWithSinksAttached) {
  // Crossover's search.breed.* counters count what it did, so they repeat
  // at one seed and do not depend on what else observes the run.
  const char* const kNames[] = {"search.crossovers",          "search.breed.orphans",
                                "search.breed.host_checks",   "search.breed.hosts_legal",
                                "search.breed.cyclic_children", "search.breed.cycle_splits"};
  auto counts = [&](bool all_sinks) {
    PlanContext ctx(scale_les(), DeviceSpec::k20x());
    MetricsRegistry metrics;
    std::ostringstream events;
    TraceLog trace(events);
    SpanTracer spans;
    DecisionLog decisions;
    Telemetry telemetry;
    telemetry.metrics = &metrics;
    if (all_sinks) {
      telemetry.trace = &trace;
      telemetry.spans = &spans;
      telemetry.decisions = &decisions;
    }
    ctx.objective.set_telemetry(&telemetry);
    HggaConfig cfg;
    cfg.population = 30;
    cfg.max_generations = 40;
    cfg.stall_generations = 40;
    cfg.seed = 7;
    (void)Hgga(ctx.objective, cfg).run(nullptr, nullptr, &telemetry);
    std::vector<long> out;
    for (const char* name : kNames) out.push_back(metrics.counter_value(name));
    return out;
  };
  const std::vector<long> first = counts(false);
  EXPECT_EQ(counts(false), first);
  EXPECT_EQ(counts(true), first);
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_GT(first[i], 0) << kNames[i];
  EXPECT_LE(first[3], first[2]);  // legal hosts among those checked
  EXPECT_LE(first[4], first[0]);  // cyclic children among the crossovers
  EXPECT_GE(first[5], first[4]);  // each cyclic child splits a group at least
}

TEST(Observability, ProjectionSamplesReuseThePricedDescriptor) {
  // Twin stacks, so each builder counts the builds of one search alone.
  TestSuiteConfig suite;
  suite.kernels = 24;
  suite.arrays = 48;
  suite.seed = 7;
  const Program program = make_testsuite_program(suite);
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const ProposedModel model(device);
  HggaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 10;
  cfg.stall_generations = 10;
  cfg.seed = 42;

  const LegalityChecker bare_checker(program, device);
  Objective bare(bare_checker, model, sim);
  const SearchResult plain = Hgga(bare, cfg).run();

  // Every sink that takes projection samples, but no decision log: its
  // dominant-component attribution simulates groups of its own.
  const LegalityChecker checker(program, device);
  Objective instrumented(checker, model, sim);
  MetricsRegistry metrics;
  std::ostringstream events;
  TraceLog trace(events);
  CalibrationTracker calibration;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.trace = &trace;
  telemetry.calibration = &calibration;
  instrumented.set_telemetry(&telemetry);
  const SearchResult traced = Hgga(instrumented, cfg).run(nullptr, nullptr, &telemetry);

  EXPECT_EQ(traced.best.to_string(), plain.best.to_string());
  expect_same_counters(traced, instrumented, plain, bare);
  EXPECT_GT(metrics.counter_value("objective.projection_samples"), 0);
  EXPECT_GT(calibration.samples(), 0);
  EXPECT_EQ(checker.builder().fused_builds(), bare_checker.builder().fused_builds());
}

TEST(Observability, ASecondSearchOnOneObjectiveCountsOnlyItsOwnRun) {
  // PlanServer keeps one objective per key across requests and retries.
  PlanContext ctx(motivating_example(), DeviceSpec::k20x());
  std::ostringstream events;
  TraceLog trace(events);
  Telemetry telemetry;
  telemetry.trace = &trace;
  ctx.objective.set_telemetry(&telemetry);
  DriverConfig cfg;
  cfg.hgga.population = 16;
  cfg.hgga.max_generations = 5;
  cfg.hgga.stall_generations = 5;
  cfg.telemetry = &telemetry;
  const SearchResult first = SearchDriver(ctx.objective, cfg).run();
  events.str("");
  const SearchResult second = SearchDriver(ctx.objective, cfg).run();
  EXPECT_EQ(second.evaluations, first.evaluations);
  EXPECT_EQ(second.model_evaluations, 0);
  // The generation events and search_end count the second run alone (the
  // last generation precedes the final polish's queries).
  double last_generation = -1.0;
  double search_end = -1.0;
  std::istringstream lines(events.str());
  for (std::string line; std::getline(lines, line);) {
    const JsonValue event = JsonValue::parse(line);
    const std::string type = event.string_or("type", "");
    if (type == "generation") last_generation = event.number_or("evaluations", -1.0);
    if (type == "search_end") search_end = event.number_or("evaluations", -1.0);
  }
  EXPECT_GT(last_generation, 0.0);
  EXPECT_LE(last_generation, static_cast<double>(second.evaluations));
  EXPECT_EQ(search_end, static_cast<double>(second.evaluations));
}

TEST(Observability, GreedyBitIdenticalWithSinksAttachedAndProvenanceRecorded) {
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(program, device);
  const ProposedModel model(device);

  Objective bare(checker, model, sim);
  const SearchResult plain = greedy_search(bare);

  Objective instrumented(checker, model, sim);
  SpanTracer spans;
  DecisionLog decisions;
  CalibrationTracker calibration;
  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.spans = &spans;
  telemetry.decisions = &decisions;
  telemetry.calibration = &calibration;
  telemetry.metrics = &metrics;
  instrumented.set_telemetry(&telemetry);
  const SearchResult traced = greedy_search(instrumented, nullptr, &telemetry);

  EXPECT_DOUBLE_EQ(traced.best_cost_s, plain.best_cost_s);
  EXPECT_EQ(traced.best.to_string(), plain.best.to_string());
  expect_same_counters(traced, instrumented, plain, bare);

  EXPECT_NE(find_row(spans.flame_table(), "search", "greedy.run"), nullptr);
  EXPECT_NE(find_row(spans.flame_table(), "search", "greedy.pass"), nullptr);
  long merges = 0;
  long rejects = 0;
  for (const auto& d : decisions.snapshot()) {
    if (d.site == DecisionLog::Site::GreedyMerge) {
      ++merges;
      EXPECT_TRUE(d.accepted);
      EXPECT_LT(d.cost_delta_s, 0.0);  // accepted merges reduce cost
      EXPECT_STRNE(d.dominant, "");
    }
    if (d.site == DecisionLog::Site::GreedyReject) {
      ++rejects;
      EXPECT_FALSE(d.accepted);
      EXPECT_GE(d.cost_delta_s, -1e-12);  // rejected merges would not help
    }
  }
  // Greedy starts from singletons and each accepted merge removes one group.
  EXPECT_EQ(merges,
            static_cast<long>(program.num_kernels() - plain.best.num_groups()));
  EXPECT_GT(rejects, 0);
}

// --------------------------------------------------------------- report

TEST(RunReportObservability, IngestsDecisionAndDriftEvents) {
  RunReport report;
  report.ingest_event(JsonValue::parse(
      R"({"ts":0.1,"type":"decision","site":"greedy_merge","accepted":true,)"
      R"("cost_delta_s":-1.5,"dominant":"gmem_traffic","members":[0,1]})"));
  report.ingest_event(JsonValue::parse(
      R"({"ts":0.2,"type":"decision","site":"greedy_merge","accepted":false,)"
      R"("cost_delta_s":0.5,"members":[2,3]})"));
  report.ingest_event(JsonValue::parse(
      R"({"ts":0.3,"type":"decision","site":"mutation_split","accepted":true,)"
      R"("cost_delta_s":-0.25,"members":[4]})"));
  report.ingest_event(JsonValue::parse(
      R"({"ts":0.4,"type":"calibration_drift","bucket":"5-8","samples":16,)"
      R"("mean_rel_error":1.5,"band":1.0})"));

  EXPECT_EQ(report.decisions_total, 3);
  ASSERT_EQ(report.decisions.size(), 2u);
  EXPECT_EQ(report.decisions[0].site, "greedy_merge");
  EXPECT_EQ(report.decisions[0].accepted, 1);
  EXPECT_EQ(report.decisions[0].rejected, 1);
  EXPECT_EQ(report.decisions[1].site, "mutation_split");
  EXPECT_NEAR(report.accepted_cost_delta_s, -1.75, 1e-12);
  ASSERT_EQ(report.drift_warnings.size(), 1u);

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("fusion decisions"), std::string::npos);
  EXPECT_NE(rendered.find("greedy_merge"), std::string::npos);
  EXPECT_NE(rendered.find("calibration drift"), std::string::npos);
  EXPECT_NE(rendered.find("5-8"), std::string::npos);
}

TEST(RunReportObservability, ParsesCalibrationBlockFromMetricsV2) {
  CalibrationTracker tracker;
  tracker.record(2, 1.2, 1.0);
  tracker.record(6, 0.8, 1.0);

  JsonValue doc = JsonValue::object();
  doc.set("schema", "kfc-metrics/v2");
  JsonValue run = JsonValue::object();
  run.set("program", "fig3");
  run.set("best_cost_s", 1.0);
  run.set("baseline_cost_s", 2.0);
  doc.set("run", std::move(run));
  doc.set("calibration", tracker.to_json());

  RunReport report;
  report.ingest_metrics(doc);
  EXPECT_TRUE(report.has_calibration);
  EXPECT_EQ(report.calibration_samples, 2);
  ASSERT_EQ(report.calibration.size(), 2u);
  EXPECT_EQ(report.calibration[0].group_size, "2");
  EXPECT_NEAR(report.calibration[0].mean_rel_error, 0.2, 1e-12);
  EXPECT_EQ(report.calibration[1].group_size, "5-8");
  EXPECT_NEAR(report.calibration[1].mean_rel_error, -0.2, 1e-12);

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("projection calibration"), std::string::npos);
  EXPECT_NE(rendered.find("drift band"), std::string::npos);
}

// ------------------------------------------------------------- trace ids

TEST(TraceId, DeriveIsDeterministicNonNullAndInputSensitive) {
  const TraceId a = TraceId::derive(1, 0xdeadbeefULL, 0xfeedfaceULL);
  const TraceId b = TraceId::derive(1, 0xdeadbeefULL, 0xfeedfaceULL);
  const TraceId c = TraceId::derive(2, 0xdeadbeefULL, 0xfeedfaceULL);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a, b);  // replayed batches reproduce identical trace ids
  EXPECT_NE(a, c);
  // Pinned: replays stay joinable with traces archived by earlier builds.
  EXPECT_EQ(a.to_hex(), "acc5c5541a91583a0d63175e0a88ba90");
  // derive() never returns the null id, even for all-zero inputs.
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_TRUE(TraceId::derive(seq, 0, 0).valid());
  }
}

TEST(TraceId, HexRoundTripAndMalformedInputParsesToNull) {
  const TraceId id = TraceId::derive(42, 0x1234, 0x5678);
  const std::string hex = id.to_hex();
  ASSERT_EQ(hex.size(), 32u);
  for (char ch : hex) {
    EXPECT_TRUE((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'))
        << "non-hex char in " << hex;
  }
  EXPECT_EQ(TraceId::from_hex(hex), id);

  char buf[33];
  id.format(buf);
  EXPECT_EQ(std::string(buf), hex);

  EXPECT_FALSE(TraceId().valid());
  EXPECT_FALSE(TraceId::from_hex("").valid());
  EXPECT_FALSE(TraceId::from_hex("not hex").valid());
  EXPECT_FALSE(TraceId::from_hex(hex.substr(0, 31)).valid());
  EXPECT_FALSE(TraceId::from_hex(hex + "0").valid());
}

TEST(TraceScope, NestedScopesInstallAndRestore) {
  EXPECT_FALSE(current_trace().valid());
  const TraceId outer_id = TraceId::derive(1, 2, 3);
  const TraceId inner_id = TraceId::derive(4, 5, 6);
  {
    TraceScope outer(outer_id);
    EXPECT_EQ(current_trace(), outer_id);
    {
      TraceScope inner(inner_id);
      EXPECT_EQ(current_trace(), inner_id);
    }
    EXPECT_EQ(current_trace(), outer_id);
  }
  EXPECT_FALSE(current_trace().valid());
}

TEST(TraceScope, IsThreadLocalAndAllocationFree) {
  const TraceId id = TraceId::derive(9, 9, 9);
  TraceScope scope(id);
  // Other threads never see this thread's trace.
  std::thread([] {
    if (current_trace().valid()) ADD_FAILURE() << "trace leaked across threads";
  }).join();
  EXPECT_EQ(current_trace(), id);

  // Scoping, reading and formatting the id are hot-path operations: zero
  // allocations, same contract as the disabled telemetry sinks.
  const long before = g_allocations.load(std::memory_order_relaxed);
  char buf[33];
  for (std::uint64_t i = 0; i < 1000; ++i) {
    TraceScope s(TraceId{1, i + 1});
    if (!current_trace().valid()) ADD_FAILURE() << "scope not installed";
    current_trace().format(buf);
  }
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

// ---------------------------------------------- serve_request wide events

TEST(WideEvent, EveryRungAndAdmissionRoundTripsExactly) {
  for (int r = 0; r < kNumServeRungs; ++r) {
    for (int a = 0; a < 4; ++a) {
      RequestContext rc;
      rc.seq = 10 * r + a + 1;
      rc.trace_id = TraceId::derive(static_cast<std::uint64_t>(rc.seq), 7, 9);
      rc.program_fp = 0x0123456789abcdefULL + static_cast<std::uint64_t>(r);
      rc.device_fp = 0xfedcba9876543210ULL - static_cast<std::uint64_t>(a);
      rc.num_kernels = 142;
      rc.cost_s = 1.0 / 3.0 + r;
      rc.baseline_cost_s = 0.1 + 0.7 * a;
      rc.rung = static_cast<ServeRung>(r);
      rc.admission = static_cast<AdmissionOutcome>(a);
      rc.degraded = (r + a) % 2 == 0;
      rc.retries = a;
      rc.queue_wait_s = 1e-7 * (a + 1);
      rc.latency_s = 0.0123456789 * (r + 1);
      rc.deadline_s = 0.05;
      rc.deadline_met = r != 3;
      rc.coalesced = a == 1;
      rc.worker_id = r - 1;
      for (int s = 0; s < RequestContext::kNumStages; ++s)
        rc.stage_s[s] = 1e-6 * (s + 1) + 1e-9 * r;

      std::ostringstream out;
      TraceLog log(out);
      {
        // TraceLog stamps the line's "trace" from the active scope.
        TraceScope scope(rc.trace_id);
        rc.to_event(log);
      }
      const std::optional<RequestContext> back =
          RequestContext::from_event(JsonValue::parse(out.str()));
      ASSERT_TRUE(back.has_value()) << out.str();
      EXPECT_TRUE(*back == rc) << "rung " << r << ", admission " << a << ": "
                               << out.str();
    }
  }
  // A line of any other event type is not a request record.
  EXPECT_FALSE(RequestContext::from_event(
                   JsonValue::parse(R"({"ts":0.1,"type":"serve_start","seq":1})"))
                   .has_value());
  EXPECT_FALSE(RequestContext::from_event(
                   JsonValue::parse(R"({"ts":0.2,"type":"generation","gen":3})"))
                   .has_value());
}

// ------------------------------------------------- span trace propagation

TEST(SpanTracer, SpansStampActiveRequestTraceAndExportIt) {
  SpanTracer tracer;
  const TraceId id = TraceId::derive(3, 0xaaa, 0xbbb);
  {
    TraceScope scope(id);
    { SpanTracer::Scope s = tracer.span("serve.store_get", "serve"); }
    { SpanTracer::Scope s = tracer.span("objective.plan_costs"); }
  }
  { SpanTracer::Scope s = tracer.span("untraced"); }
  EXPECT_EQ(tracer.spans_with_trace(id), 2);
  EXPECT_EQ(tracer.spans_with_trace(TraceId::derive(99, 0, 0)), 0);

  const JsonValue doc = JsonValue::parse(tracer.to_chrome_trace_json());
  ASSERT_TRUE(doc.is_array());
  bool saw_serve_process = false;
  int stamped = 0;
  for (const JsonValue& event : doc.items()) {
    const std::string ph = event.string_or("ph", "");
    if (ph == "M" && event.string_or("name", "") == "process_name") {
      const JsonValue* args = event.find("args");
      if (args != nullptr && args->string_or("name", "") == "serve (requests)") {
        EXPECT_EQ(static_cast<int>(event.number_or("pid", -1)),
                  ChromeTraceWriter::kServePid);
        saw_serve_process = true;
      }
    }
    if (ph != "X") continue;
    // Request-lifecycle spans (cat "serve") live in their own process lane.
    if (event.string_or("cat", "") == "serve") {
      EXPECT_EQ(static_cast<int>(event.number_or("pid", -1)),
                ChromeTraceWriter::kServePid);
    }
    if (const JsonValue* args = event.find("args"); args != nullptr) {
      const std::string trace_hex = args->string_or("trace_id", "");
      if (!trace_hex.empty()) {
        ++stamped;
        EXPECT_EQ(TraceId::from_hex(trace_hex), id);
      }
    }
  }
  EXPECT_TRUE(saw_serve_process);
  EXPECT_EQ(stamped, 2);  // the untraced span exports no trace_id arg
}

// Satellite: the shared ChromeTraceWriter must stay well-formed under
// concurrent multi-threaded serve traffic — the whole document parses,
// per-thread timestamps are monotone non-decreasing, every span lands in
// one of the fixed process lanes, and threads keep distinct dense tids.
TEST(SpanTracer, ChromeExportWellFormedUnderConcurrentServeTraffic) {
  SpanTracer tracer;
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        TraceScope scope(TraceId::derive(
            static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(r),
            0x11, 0x22));
        SpanTracer::Scope request = tracer.span("serve.request", "serve");
        { SpanTracer::Scope stage = tracer.span("serve.store_get", "serve"); }
        { SpanTracer::Scope stage = tracer.span("objective.eval"); }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_EQ(tracer.recorded(), kThreads * kRequestsPerThread * 3);
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.threads_seen(), kThreads);

  const JsonValue doc = JsonValue::parse(tracer.to_chrome_trace_json());
  ASSERT_TRUE(doc.is_array());
  std::map<std::pair<long, long>, double> last_ts;  // (pid, tid) -> last ts
  std::set<long> tids;
  long complete = 0;
  for (const JsonValue& event : doc.items()) {
    if (event.string_or("ph", "") != "X") continue;
    ++complete;
    const long pid = static_cast<long>(event.number_or("pid", -1));
    const long tid = static_cast<long>(event.number_or("tid", -1));
    const double ts = event.number_or("ts", -1.0);
    ASSERT_GE(ts, 0.0);
    ASSERT_GE(event.number_or("dur", -1.0), 0.0);
    tids.insert(tid);
    const std::string cat = event.string_or("cat", "");
    EXPECT_EQ(pid, cat == "serve" ? ChromeTraceWriter::kServePid
                                  : ChromeTraceWriter::kSearchPid);
    auto [it, inserted] = last_ts.try_emplace({pid, tid}, ts);
    if (!inserted) {
      EXPECT_GE(ts, it->second) << "timestamps regressed on tid " << tid;
      it->second = ts;
    }
  }
  EXPECT_EQ(complete, tracer.recorded());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

// ------------------------------------------------- buckets and exemplars

TEST(Metrics, ExplicitBucketsCountExactlyAndCaptureTracedExemplars) {
  MetricsRegistry metrics;
  metrics.declare_buckets("serve.latency_seconds", {0.001, 0.01, 0.1});
  metrics.observe("serve.latency_seconds", 0.0005);  // untraced
  metrics.observe("serve.latency_seconds", 0.005);   // untraced
  const TraceId id = TraceId::derive(5, 6, 7);
  {
    TraceScope scope(id);
    metrics.observe("serve.latency_seconds", 0.05);
    metrics.observe("serve.latency_seconds", 5.0);  // beyond the last bound
  }

  const MetricsRegistry::HistogramSnapshot snap =
      metrics.histogram("serve.latency_seconds");
  EXPECT_EQ(snap.count, 4u);
  ASSERT_EQ(snap.buckets.size(), 4u);  // 3 declared + implicit +Inf
  EXPECT_DOUBLE_EQ(snap.buckets[0].le, 0.001);
  EXPECT_DOUBLE_EQ(snap.buckets[1].le, 0.01);
  EXPECT_DOUBLE_EQ(snap.buckets[2].le, 0.1);
  EXPECT_TRUE(std::isinf(snap.buckets[3].le));
  EXPECT_EQ(snap.buckets[0].count, 1);
  EXPECT_EQ(snap.buckets[1].count, 1);
  EXPECT_EQ(snap.buckets[2].count, 1);
  EXPECT_EQ(snap.buckets[3].count, 1);
  // Exemplars only where a sample landed while a request trace was active.
  EXPECT_FALSE(snap.buckets[0].exemplar_trace.valid());
  EXPECT_FALSE(snap.buckets[1].exemplar_trace.valid());
  EXPECT_EQ(snap.buckets[2].exemplar_trace, id);
  EXPECT_DOUBLE_EQ(snap.buckets[2].exemplar_value, 0.05);
  EXPECT_EQ(snap.buckets[3].exemplar_trace, id);
  EXPECT_DOUBLE_EQ(snap.buckets[3].exemplar_value, 5.0);

  EXPECT_THROW(metrics.declare_buckets("x", {}), PreconditionError);
  EXPECT_THROW(metrics.declare_buckets("x", {1.0, 1.0}), PreconditionError);
  EXPECT_THROW(
      metrics.declare_buckets("x", {1.0, std::numeric_limits<double>::infinity()}),
      PreconditionError);
}

TEST(Metrics, DeclareBucketsRetrofitsExistingSeriesAndStaysIdempotent) {
  MetricsRegistry metrics;
  metrics.observe("serve.latency_seconds", 0.5);
  EXPECT_TRUE(metrics.histogram("serve.latency_seconds").buckets.empty());
  // Retrofit rebuilds the bucket vector (counts start from nothing — the
  // documented contract is "declare before the first observe for exact
  // counts"), after which new samples land in buckets.
  metrics.declare_buckets("serve.latency_seconds", {1.0});
  metrics.observe("serve.latency_seconds", 0.25);
  metrics.declare_buckets("serve.latency_seconds", {1.0});  // idempotent
  const MetricsRegistry::HistogramSnapshot snap =
      metrics.histogram("serve.latency_seconds");
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets[0].count, 1);
  EXPECT_EQ(snap.count, 2u);  // exact totals are unaffected by the retrofit
}

TEST(Metrics, HistogramPercentilesInterpolateWithExactExtremes) {
  MetricsRegistry metrics;
  for (int i = 1; i <= 100; ++i) {
    metrics.observe("lat", static_cast<double>(i));
  }
  const MetricsRegistry::HistogramSnapshot snap = metrics.histogram("lat");
  EXPECT_DOUBLE_EQ(snap.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(snap.percentile(100), 100.0);
  EXPECT_NEAR(snap.percentile(50), 50.5, 1.0);
  EXPECT_NEAR(snap.percentile(95), 95.0, 1.5);
  EXPECT_THROW(snap.percentile(-1.0), PreconditionError);
  EXPECT_THROW(snap.percentile(101.0), PreconditionError);
  const MetricsRegistry::HistogramSnapshot empty = metrics.histogram("absent");
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
}

// ------------------------------------------------------------ prometheus

TEST(Prometheus, NamesAreSanitisedWithKfPrefix) {
  EXPECT_EQ(prometheus_name("serve.latency_seconds"), "kf_serve_latency_seconds");
  EXPECT_EQ(prometheus_name("serve.rung_total.store_hit"),
            "kf_serve_rung_total_store_hit");
  EXPECT_EQ(prometheus_name("weird-name with spaces"),
            "kf_weird_name_with_spaces");
}

TEST(Prometheus, RendersValidExpositionWithExemplarsAndEofTerminator) {
  MetricsRegistry metrics;
  metrics.count("serve.requests_total", 3);
  metrics.gauge("serve.inflight", 2.0);
  metrics.declare_buckets("serve.latency_seconds", {0.01, 0.1});
  metrics.observe("serve.latency_seconds", 0.005);
  const TraceId id = TraceId::derive(11, 12, 13);
  {
    TraceScope scope(id);
    metrics.observe("serve.latency_seconds", 0.05);
  }

  const std::string text = prometheus_render(metrics);
  const auto count_of = [&text](const std::string& needle) {
    long n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };

  EXPECT_NE(text.find("# TYPE kf_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kf_serve_inflight gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kf_serve_latency_seconds histogram\n"),
            std::string::npos);
  // Bucket series are cumulative; the traced bucket carries its exemplar.
  EXPECT_NE(text.find("kf_serve_latency_seconds_bucket{le=\"0.01\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_latency_seconds_bucket{le=\"0.1\"} 2 "
                      "# {trace_id=\"" + id.to_hex() + "\"} 0.05\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_latency_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_latency_seconds_count 2\n"), std::string::npos);
  // Exactly one HELP/TYPE pair per family.
  EXPECT_EQ(count_of("# TYPE kf_serve_latency_seconds histogram"), 1);
  EXPECT_EQ(count_of("# HELP kf_serve_latency_seconds"), 1);
  // OpenMetrics terminator, and nothing after it.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(Prometheus, HistogramWithoutDeclaredBucketsStaysWellFormed) {
  MetricsRegistry metrics;
  metrics.observe("objective.eval_seconds", 0.25);
  metrics.observe("objective.eval_seconds", 0.75);
  const std::string text = prometheus_render(metrics);
  EXPECT_NE(text.find("kf_objective_eval_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_objective_eval_seconds_sum 1\n"), std::string::npos);
  EXPECT_NE(text.find("kf_objective_eval_seconds_count 2\n"), std::string::npos);
}

// ------------------------------------------------------------------- slo

TEST(Slo, BurnRatesPerWindowMatchHandComputedBudgetMath) {
  SloTracker::Config cfg;
  cfg.deadline_miss_budget = 0.001;
  cfg.degraded_budget = 0.05;
  cfg.latency_target_s = 0.1;
  cfg.slow_budget = 0.05;
  cfg.windows_s = {100.0, 10000.0};
  SloTracker slo(cfg);
  // 1000 requests at 1 Hz: 2 deadline misses (one inside the short window),
  // 10 degraded, 5 slow.
  for (int i = 0; i < 1000; ++i) {
    RequestContext r;
    r.latency_s = (i % 200 == 0) ? 0.2 : 0.01;
    r.deadline_met = !(i == 10 || i == 990);
    r.degraded = (i % 100 == 0);
    r.rung = static_cast<ServeRung>(i % kNumServeRungs);
    slo.record(r, static_cast<double>(i));
  }
  EXPECT_EQ(slo.recorded(), 1000);

  const SloTracker::Report rep = slo.report(999.0);
  EXPECT_EQ(rep.total_requests, 1000);
  EXPECT_EQ(rep.total_deadline_misses, 2);
  EXPECT_EQ(rep.total_degraded, 10);
  EXPECT_EQ(rep.total_slow, 5);
  EXPECT_EQ(rep.evicted, 0);
  for (int r = 0; r < kNumServeRungs; ++r) {
    EXPECT_EQ(rep.rung_count[r], 250);
  }
  ASSERT_EQ(rep.windows.size(), 2u);

  // Short window [899, 999]: 101 requests, 1 miss, 1 degraded, 0 slow.
  const SloTracker::WindowReport& fast = rep.windows[0];
  EXPECT_DOUBLE_EQ(fast.window_s, 100.0);
  EXPECT_EQ(fast.requests, 101);
  EXPECT_EQ(fast.deadline_misses, 1);
  EXPECT_EQ(fast.degraded, 1);
  EXPECT_EQ(fast.slow, 0);
  EXPECT_NEAR(fast.deadline_burn, (1.0 / 101.0) / 0.001, 1e-9);
  EXPECT_NEAR(fast.degraded_burn, (1.0 / 101.0) / 0.05, 1e-9);
  EXPECT_DOUBLE_EQ(fast.latency_burn, 0.0);

  // Long window covers everything: burn = (bad fraction) / budget.
  const SloTracker::WindowReport& slow = rep.windows[1];
  EXPECT_EQ(slow.requests, 1000);
  EXPECT_NEAR(slow.deadline_burn, 2.0, 1e-12);
  EXPECT_NEAR(slow.degraded_burn, (10.0 / 1000.0) / 0.05, 1e-12);
  EXPECT_NEAR(slow.latency_burn, (5.0 / 1000.0) / 0.05, 1e-12);

  // worst_burn is the max over windows and objectives: the fast window's
  // deadline burn (~9.9) dominates.
  EXPECT_NEAR(rep.worst_burn, fast.deadline_burn, 1e-9);

  const std::string rendered = rep.render();
  EXPECT_NE(rendered.find("slo: 1000 requests"), std::string::npos);
  EXPECT_NE(rendered.find("worst burn rate"), std::string::npos);
  EXPECT_NE(rendered.find("error budget burning"), std::string::npos);
}

TEST(Slo, RingEvictionKeepsExactTotalsWhileWindowsUndercount) {
  SloTracker::Config cfg;
  cfg.capacity = 8;
  cfg.windows_s = {1000.0};
  SloTracker slo(cfg);
  for (int i = 0; i < 20; ++i) {
    RequestContext r;
    r.deadline_met = (i % 2 == 0);  // 10 misses total
    slo.record(r, static_cast<double>(i));
  }
  const SloTracker::Report rep = slo.report(19.0);
  EXPECT_EQ(rep.total_requests, 20);       // exact counters survive eviction
  EXPECT_EQ(rep.total_deadline_misses, 10);
  EXPECT_EQ(rep.evicted, 12);
  ASSERT_EQ(rep.windows.size(), 1u);
  EXPECT_EQ(rep.windows[0].requests, 8);   // only the ring feeds the windows
  const std::string rendered = rep.render();
  EXPECT_NE(rendered.find("evicted"), std::string::npos);
}

TEST(Slo, ReportJsonRoundTripsThroughTheV3Block) {
  SloTracker::Config cfg;
  cfg.latency_target_s = 0.05;
  cfg.windows_s = {60.0, 3600.0};
  SloTracker slo(cfg);
  for (int i = 0; i < 50; ++i) {
    RequestContext r;
    r.latency_s = 0.01 * (i % 7);
    r.deadline_met = (i % 10 != 3);
    r.degraded = (i % 25 == 0);
    r.rung = static_cast<ServeRung>(i % kNumServeRungs);
    slo.record(r, static_cast<double>(i));
  }
  const SloTracker::Report rep = slo.report(49.0);
  // Serialise, reparse through the JSON layer, rebuild.
  const JsonValue reparsed = JsonValue::parse(rep.to_json().to_string());
  const SloTracker::Report back = SloTracker::from_json(reparsed);
  EXPECT_EQ(back.total_requests, rep.total_requests);
  EXPECT_EQ(back.total_deadline_misses, rep.total_deadline_misses);
  EXPECT_EQ(back.total_degraded, rep.total_degraded);
  EXPECT_EQ(back.total_slow, rep.total_slow);
  EXPECT_EQ(back.evicted, rep.evicted);
  EXPECT_DOUBLE_EQ(back.worst_burn, rep.worst_burn);
  EXPECT_DOUBLE_EQ(back.config.deadline_miss_budget,
                   rep.config.deadline_miss_budget);
  EXPECT_DOUBLE_EQ(back.config.latency_target_s, rep.config.latency_target_s);
  ASSERT_EQ(back.config.windows_s.size(), rep.config.windows_s.size());
  ASSERT_EQ(back.windows.size(), rep.windows.size());
  for (std::size_t w = 0; w < rep.windows.size(); ++w) {
    EXPECT_EQ(back.windows[w].requests, rep.windows[w].requests);
    EXPECT_EQ(back.windows[w].deadline_misses, rep.windows[w].deadline_misses);
    EXPECT_DOUBLE_EQ(back.windows[w].worst_burn, rep.windows[w].worst_burn);
  }
  for (int r = 0; r < kNumServeRungs; ++r) {
    EXPECT_EQ(back.rung_count[r], rep.rung_count[r]);
  }
  EXPECT_THROW(SloTracker::from_json(JsonValue::object()), RuntimeError);
}

TEST(Slo, ConfigValidationRejectsDegenerateSetups) {
  SloTracker::Config no_windows;
  no_windows.windows_s.clear();
  EXPECT_THROW(SloTracker{no_windows}, PreconditionError);
  SloTracker::Config bad_window;
  bad_window.windows_s = {-1.0};
  EXPECT_THROW(SloTracker{bad_window}, PreconditionError);
  SloTracker::Config no_capacity;
  no_capacity.capacity = 0;
  EXPECT_THROW(SloTracker{no_capacity}, PreconditionError);
}

// -------------------------------------------------------- serving report

TEST(RunReportServing, IngestsWideEventsIntoPerRungStats) {
  const std::string trace = TraceId::derive(1, 2, 3).to_hex();
  RunReport report;
  report.ingest_event(JsonValue::parse(
      R"({"ts":0.1,"type":"serve_request","trace":")" + trace +
      R"(","seq":1,"rung":"store_hit","latency_s":0.002,"deadline_s":0.05,)"
      R"("deadline_met":true,"deadline_frac_used":0.04,"degraded":false})"));
  report.ingest_event(JsonValue::parse(
      R"({"ts":0.2,"type":"serve_request","trace":")" + trace +
      R"(","seq":2,"rung":"full_search","latency_s":0.08,"deadline_s":0.05,)"
      R"("deadline_met":false,"deadline_frac_used":1.6,"degraded":true})"));
  report.ingest_event(JsonValue::parse(
      R"({"ts":0.3,"type":"serve_request","seq":3,"rung":"store_hit",)"
      R"("latency_s":0.003,"deadline_s":0.05,"deadline_met":true,)"
      R"("deadline_frac_used":0.06,"degraded":false})"));

  EXPECT_TRUE(report.has_serve);
  EXPECT_EQ(report.serve_wide_events, 3);
  EXPECT_EQ(report.serve_traced, 2);
  EXPECT_EQ(report.serve_event_misses, 1);
  EXPECT_EQ(report.serve_event_degraded, 1);
  ASSERT_EQ(report.serve_rungs.size(), 2u);  // first-seen order
  EXPECT_EQ(report.serve_rungs[0].rung, "store_hit");
  EXPECT_EQ(report.serve_rungs[0].latencies_s.size(), 2u);
  EXPECT_EQ(report.serve_rungs[0].deadline_misses, 0);
  EXPECT_NEAR(report.serve_rungs[0].worst_headroom, 1.0 - 0.06, 1e-12);
  EXPECT_EQ(report.serve_rungs[1].rung, "full_search");
  EXPECT_EQ(report.serve_rungs[1].deadline_misses, 1);
  EXPECT_NEAR(report.serve_rungs[1].worst_headroom, 1.0 - 1.6, 1e-12);

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("serving:"), std::string::npos);
  EXPECT_NE(rendered.find("per-rung latency"), std::string::npos);
  EXPECT_NE(rendered.find("store_hit"), std::string::npos);
  EXPECT_NE(rendered.find("full_search"), std::string::npos);
}

TEST(RunReportServing, IngestsV3MetricsCountersHistogramAndSloBlock) {
  // Build the document the way `kfc serve-batch --metrics` does: the
  // registry's JSON plus the schema tag and the SLO block.
  MetricsRegistry metrics;
  metrics.count("serve.requests_total", 13);
  metrics.count("serve.deadline_missed_total", 2);
  metrics.count("serve.degraded_total", 1);
  metrics.count("serve.rung_total.store_hit", 8);
  metrics.count("serve.rung_total.full_search", 5);
  metrics.count("store.write_faults", 3);
  metrics.declare_buckets("serve.latency_seconds", {0.01, 0.1});
  for (int i = 0; i < 13; ++i) {
    metrics.observe("serve.latency_seconds", 0.005 + 0.001 * i);
  }

  SloTracker slo;
  for (int i = 0; i < 13; ++i) {
    RequestContext r;
    r.deadline_met = (i >= 2);
    r.degraded = (i == 5);
    slo.record(r, static_cast<double>(i));
  }

  JsonValue doc = metrics.to_json();
  doc.set("schema", "kfc-metrics/v3");
  doc.set("slo", slo.report(12.0).to_json());

  RunReport report;
  report.ingest_metrics(JsonValue::parse(doc.to_string()));
  EXPECT_TRUE(report.has_serve);
  EXPECT_EQ(report.serve_requests, 13);
  EXPECT_EQ(report.serve_deadline_misses, 2);
  EXPECT_EQ(report.serve_degraded, 1);
  ASSERT_EQ(report.serve_rungs.size(), 2u);
  EXPECT_EQ(report.serve_rungs[0].counter_requests +
                report.serve_rungs[1].counter_requests,
            13);
  EXPECT_TRUE(report.has_serve_latency);
  EXPECT_EQ(report.serve_latency_count, 13);
  EXPECT_GT(report.serve_latency_p50, 0.0);
  // Counters not folded into named fields surface in the operational list.
  bool saw_write_faults = false;
  for (const auto& [name, value] : report.serving_counters) {
    if (name == "store.write_faults" && value == 3) saw_write_faults = true;
  }
  EXPECT_TRUE(saw_write_faults);
  ASSERT_TRUE(report.has_slo);
  EXPECT_EQ(report.slo.total_requests, 13);
  EXPECT_EQ(report.slo.total_deadline_misses, 2);

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("serving:"), std::string::npos);
  EXPECT_NE(rendered.find("slo: 13 requests"), std::string::npos);
  EXPECT_NE(rendered.find("latency histogram"), std::string::npos);
}

}  // namespace
}  // namespace kf
