// Serving-lifecycle tests: token-bucket admission, the degradation ladder
// (store hit → polished stored plan → full search → trivial floor), fault-
// storm retries with exponential backoff, store write-fault survival, and
// the invariant the whole layer exists for — every request, under any mix
// of faults and overload, gets a legal plan within its deadline. Time and
// sleep are injected, so every admission/deadline/backoff decision here is
// driven by a fake clock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "fusion/legality.hpp"
#include "gpu/device_spec.hpp"
#include "graph/array_expansion.hpp"
#include "model/proposed_model.hpp"
#include "search/population.hpp"
#include "serve/admission.hpp"
#include "serve/plan_server.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_engine.hpp"
#include "store/fingerprint.hpp"
#include "store/plan_store.hpp"
#include "telemetry/json.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace kf {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------- TokenBucket

TEST(TokenBucket, RateZeroMeansUnlimited) {
  TokenBucket bucket({.rate_per_s = 0.0, .burst = 1.0});
  for (int i = 0; i < 100; ++i) {
    const auto d = bucket.admit(0.0, 0);
    EXPECT_TRUE(d.admitted);
    EXPECT_EQ(d.wait_s, 0.0);
  }
}

TEST(TokenBucket, BurstThenQueueThenReject) {
  TokenBucket bucket({.rate_per_s = 1.0, .burst = 2.0});
  // Two instant admits out of the burst.
  EXPECT_TRUE(bucket.admit(0.0, 2).admitted);
  auto d = bucket.admit(0.0, 2);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.wait_s, 0.0);
  // Third and fourth go into token debt — the virtual queue.
  d = bucket.admit(0.0, 2);
  EXPECT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(d.wait_s, 1.0);
  EXPECT_EQ(d.queue_depth, 0.0);
  d = bucket.admit(0.0, 2);
  EXPECT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(d.wait_s, 2.0);
  EXPECT_DOUBLE_EQ(d.queue_depth, 1.0);
  // Fifth would push the debt past the bound: rejected, state untouched.
  d = bucket.admit(0.0, 2);
  EXPECT_FALSE(d.admitted);
  EXPECT_DOUBLE_EQ(d.queue_depth, 2.0);
  EXPECT_DOUBLE_EQ(bucket.level(0.0), -2.0);
  // Time refills the bucket; the same request admits later with less wait.
  d = bucket.admit(2.5, 2);
  EXPECT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(d.wait_s, 0.5);
}

TEST(TokenBucket, RejectsBurstBelowOneWhenRateLimiting) {
  EXPECT_THROW(TokenBucket({.rate_per_s = 1.0, .burst = 0.5}), PreconditionError);
}

// ------------------------------------------------------------ PlanServer

/// Injectable monotone time shared between the server's clock and sleep.
struct FakeTime {
  double now = 0.0;
  std::vector<double> sleeps;
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "kf_serve_" + name;
  fs::remove_all(dir);
  return dir;
}

PlanStore::Config store_config(const std::string& dir) {
  PlanStore::Config c;
  c.dir = dir;
  c.durable = false;
  return c;
}

PlanServerConfig server_config(FakeTime& time) {
  PlanServerConfig cfg;
  cfg.clock = [&time] { return time.now; };
  cfg.sleep = [&time](double s) {
    time.sleeps.push_back(s);
    time.now += s;
  };
  return cfg;
}

/// Independent legality stack (mirrors `kfc serve-batch`): the served plan
/// is checked by an expansion + checker the server did not build.
struct Validator {
  ExpansionResult expansion;
  LegalityChecker checker;

  Validator(const Program& program, const DeviceSpec& device)
      : expansion(expand_arrays(program, -1.0)),
        checker(expansion.program, device) {}

  bool legal(const FusionPlan& plan) const { return checker.plan_is_legal(plan); }
};

TEST(PlanServer, MissSearchesThenHitsTheStore) {
  const std::string dir = fresh_dir("miss_hit");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  Validator validator(program, device);

  const ServeResult miss = server.serve(program, device);
  EXPECT_EQ(miss.rung, ServeRung::FullSearch);
  EXPECT_FALSE(miss.degraded);
  EXPECT_TRUE(miss.deadline_met);
  EXPECT_TRUE(validator.legal(miss.plan));
  EXPECT_GT(miss.baseline_cost_s, 0.0);
  EXPECT_LE(miss.cost_s, miss.baseline_cost_s) << "search must not lose to identity";

  const ServeResult hit = server.serve(program, device);
  EXPECT_EQ(hit.rung, ServeRung::StoreHit);
  EXPECT_FALSE(hit.degraded);
  EXPECT_TRUE(validator.legal(hit.plan));
  EXPECT_EQ(hit.plan.to_string(), miss.plan.to_string());
  EXPECT_EQ(hit.program_fp, miss.program_fp);

  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.full_searches, 1);
  EXPECT_EQ(stats.store_hits, 1);
  EXPECT_EQ(stats.writebacks, 1);
  EXPECT_EQ(stats.degraded, 0);
}

TEST(PlanServer, CrossDeviceRequestPolishesTheStoredPlan) {
  const std::string dir = fresh_dir("polish");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = scale_les_rk18();

  ASSERT_EQ(server.serve(program, DeviceSpec::k20x()).rung, ServeRung::FullSearch);

  // Same program, different device: the k20x plan is the warm start.
  const ServeResult polished = server.serve(program, DeviceSpec::k40());
  EXPECT_EQ(polished.rung, ServeRung::PolishedStored);
  EXPECT_TRUE(polished.degraded) << "served below the natural rung";
  Validator validator(program, DeviceSpec::k40());
  EXPECT_TRUE(validator.legal(polished.plan));
  EXPECT_LE(polished.cost_s, polished.baseline_cost_s);

  // The polished result was written back: the pair now hits exactly.
  EXPECT_EQ(server.serve(program, DeviceSpec::k40()).rung, ServeRung::StoreHit);
  EXPECT_EQ(server.stats().polished, 1);
  EXPECT_EQ(server.stats().writebacks, 2);
}

TEST(PlanServer, CrossDeviceRequestBelowTheSearchFloorServesTheStoredPlanUnpolished) {
  const std::string dir = fresh_dir("polish_floor");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = scale_les_rk18();
  const ServeResult searched = server.serve(program, DeviceSpec::k20x());
  ASSERT_EQ(searched.rung, ServeRung::FullSearch);

  ServeRequest request;
  request.deadline_s = 0.001;  // below min_search_budget_s: no polish either
  const ServeResult r = server.serve(program, DeviceSpec::k40(), request);
  EXPECT_EQ(r.rung, ServeRung::PolishedStored);
  Validator validator(program, DeviceSpec::k40());
  ASSERT_TRUE(validator.legal(r.plan));
  FusionPlan stored = searched.plan;
  if (repair_plan(validator.checker, stored) > 0) stored.canonicalize();
  EXPECT_EQ(r.plan.to_string(), stored.to_string());
  const TimingSimulator sim(DeviceSpec::k40());
  const ProposedModel model(DeviceSpec::k40());
  const Objective objective(validator.checker, model, sim);
  EXPECT_EQ(r.cost_s, objective.plan_cost(r.plan));
}

TEST(PlanServer, TinyDeadlineOnAnEmptyStoreFallsToTheFloor) {
  const std::string dir = fresh_dir("floor");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = motivating_example();

  ServeRequest request;
  request.deadline_s = 0.001;  // below min_search_budget_s: search is skipped
  const ServeResult r = server.serve(program, DeviceSpec::k20x(), request);
  EXPECT_EQ(r.rung, ServeRung::TrivialFloor);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.deadline_met) << "the floor answers instantly";
  EXPECT_EQ(static_cast<int>(r.plan.groups().size()), r.num_kernels)
      << "the floor is the identity plan";
  EXPECT_DOUBLE_EQ(r.cost_s, r.baseline_cost_s);
  EXPECT_EQ(server.stats().trivial, 1);
}

TEST(PlanServer, RejectedRequestStillGetsALegalPlan) {
  const std::string dir = fresh_dir("reject");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.admission = {.rate_per_s = 1.0, .burst = 1.0};
  cfg.max_queue_depth = 0;  // no queue: second request at t=0 must shed
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  Validator validator(program, DeviceSpec::k20x());

  EXPECT_TRUE(server.serve(program, DeviceSpec::k20x()).admission ==
              AdmissionOutcome::Admitted);
  const ServeResult shed = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(shed.admission, AdmissionOutcome::Rejected);
  EXPECT_EQ(shed.rung, ServeRung::TrivialFloor);
  EXPECT_TRUE(shed.degraded);
  EXPECT_TRUE(validator.legal(shed.plan));
  EXPECT_EQ(static_cast<int>(shed.plan.groups().size()), shed.num_kernels);
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(PlanServer, QueuedRequestSleepsOutItsReservation) {
  const std::string dir = fresh_dir("queued");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.admission = {.rate_per_s = 100.0, .burst = 1.0};
  PlanServer server(store, cfg);
  const Program program = motivating_example();

  ASSERT_EQ(server.serve(program, DeviceSpec::k20x()).admission,
            AdmissionOutcome::Admitted);
  const ServeResult queued = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(queued.admission, AdmissionOutcome::Queued);
  EXPECT_DOUBLE_EQ(queued.queue_wait_s, 0.01);  // one token at 100/s
  EXPECT_GE(queued.latency_s, 0.01) << "the wait is part of the latency";
  EXPECT_TRUE(queued.deadline_met);
  ASSERT_FALSE(time.sleeps.empty());
  EXPECT_DOUBLE_EQ(time.sleeps.front(), 0.01);
  EXPECT_EQ(server.stats().queued, 1);
}

TEST(PlanServer, QueuedWaitPastTheDeadlineIsShedUpFront) {
  const std::string dir = fresh_dir("shed");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.admission = {.rate_per_s = 0.1, .burst = 1.0};  // 10 s per token
  PlanServer server(store, cfg);
  const Program program = motivating_example();

  ASSERT_EQ(server.serve(program, DeviceSpec::k20x()).admission,
            AdmissionOutcome::Admitted);
  ServeRequest request;
  request.deadline_s = 1.0;  // the 10 s token wait alone would blow it
  const ServeResult shed = server.serve(program, DeviceSpec::k20x(), request);
  EXPECT_EQ(shed.admission, AdmissionOutcome::Rejected);
  EXPECT_TRUE(shed.deadline_met) << "shedding answers instantly";
  EXPECT_TRUE(time.sleeps.empty()) << "a shed request must not sleep";
}

TEST(PlanServer, FaultStormRetriesWithExponentialBackoffThenFloors) {
  const std::string dir = fresh_dir("storm");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.fault_storm_evals = 1;  // the first fault aborts the attempt
  cfg.max_retries = 2;
  cfg.backoff_base_s = 0.25;
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  Validator validator(program, DeviceSpec::k20x());

  ScopedFaultInjection inject(FaultPlan{FaultSite::Objective, 1.0, 42});
  const ServeResult r = server.serve(program, DeviceSpec::k20x());
  // Every attempt storms (rate 1.0 faults each new group), so the ladder
  // retries max_retries times and lands on the floor — still legal.
  EXPECT_EQ(r.retries, 2);
  EXPECT_EQ(r.rung, ServeRung::TrivialFloor);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(validator.legal(r.plan));
  ASSERT_EQ(time.sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(time.sleeps[0], 0.25);
  EXPECT_DOUBLE_EQ(time.sleeps[1], 0.5) << "backoff doubles per attempt";
  EXPECT_TRUE(r.deadline_met) << "0.75 s of backoff fits the 2 s default";
  EXPECT_EQ(server.stats().retries, 2);
}

TEST(PlanServer, QuarantinePersistsAcrossAttemptsSoRetriesConverge) {
  const std::string dir = fresh_dir("converge");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.fault_storm_evals = 1000;  // faults quarantine but never storm
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  Validator validator(program, DeviceSpec::k20x());

  ScopedFaultInjection inject(FaultPlan{FaultSite::Objective, 1.0, 42});
  const ServeResult r = server.serve(program, DeviceSpec::k20x());
  // With every fused evaluation quarantined, the search completes and falls
  // back to the (legal) identity — a FullSearch answer, zero retries.
  EXPECT_EQ(r.rung, ServeRung::FullSearch);
  EXPECT_EQ(r.retries, 0);
  EXPECT_TRUE(validator.legal(r.plan));
}

TEST(PlanServer, StoreWriteFaultDegradesDurabilityNotTheResponse) {
  const std::string dir = fresh_dir("writeback");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = motivating_example();
  Validator validator(program, DeviceSpec::k20x());

  {
    ScopedFaultInjection inject(FaultPlan{FaultSite::Store, 1.0, 7});
    const ServeResult r = server.serve(program, DeviceSpec::k20x());
    EXPECT_EQ(r.rung, ServeRung::FullSearch) << "the search result still serves";
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(validator.legal(r.plan));
  }
  EXPECT_EQ(server.stats().writeback_failures, 1);
  EXPECT_EQ(server.stats().writebacks, 0);
  EXPECT_EQ(store.size(), 0u) << "the torn write-back never reached the index";
  EXPECT_EQ(store.stats().write_faults, 1);

  // With faults disarmed the next request misses, searches and writes back.
  const ServeResult retry = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(retry.rung, ServeRung::FullSearch);
  EXPECT_EQ(server.stats().writebacks, 1);
  EXPECT_EQ(store.size(), 1u);
}

TEST(PlanServer, InvalidStoredPlanIsEvictedNeverServed) {
  const std::string dir = fresh_dir("evict");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.mem_budget = 0.0;  // keys computed on the raw program below must match
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  ASSERT_NE(program.num_kernels(), 2);

  // Poison the exact key with a plan whose kernel count cannot parse
  // against this program — "stored but no longer legal".
  StoredPlan poison;
  poison.key = {program_fingerprint(program),
                device_fingerprint(DeviceSpec::k20x())};
  poison.num_kernels = 2;
  poison.plan_text = "{0} {1}";
  poison.best_cost_s = 1e-3;
  poison.baseline_cost_s = 2e-3;
  store.put(poison);

  const ServeResult r = server.serve(program, DeviceSpec::k20x());
  EXPECT_EQ(r.rung, ServeRung::FullSearch) << "the poisoned hit fell through";
  EXPECT_EQ(server.stats().invalid_stored, 1);
  // The eviction and the write-back both committed: the key now holds the
  // fresh result, and it round-trips as a hit.
  const auto now_stored = store.get(poison.key);
  ASSERT_TRUE(now_stored.has_value());
  EXPECT_EQ(now_stored->num_kernels, program.num_kernels());
  EXPECT_EQ(server.serve(program, DeviceSpec::k20x()).rung, ServeRung::StoreHit);
}

TEST(PlanServer, IllegalStoredGroupIsSplitBeforePolishing) {
  const std::string dir = fresh_dir("repair");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  Validator validator(program, device);
  const int n = validator.expansion.program.num_kernels();

  // Two kernels that share no array can never form one kernel.
  KernelId a = -1;
  KernelId b = -1;
  for (KernelId i = 0; i < n && a < 0; ++i) {
    for (KernelId j = i + 1; j < n; ++j) {
      const KernelId pair[2] = {i, j};
      if (validator.checker.check_group(pair) == LegalityVerdict::NotConnected) {
        a = i;
        b = j;
        break;
      }
    }
  }
  ASSERT_GE(a, 0) << "no unconnected kernel pair in the program";

  // Store that illegal group under another device's key: the exact key
  // misses, and the polish rung must repair the warm start before use.
  FusionPlan illegal(n);
  illegal.merge_groups(illegal.group_of(a), illegal.group_of(b));
  ASSERT_FALSE(validator.legal(illegal));
  StoredPlan stored;
  stored.key = {program_fingerprint(validator.expansion.program),
                device_fingerprint(DeviceSpec::k40())};
  stored.num_kernels = n;
  stored.plan_text = illegal.to_string();
  stored.best_cost_s = 1e-3;
  stored.baseline_cost_s = 2e-3;
  store.put(stored);

  const ServeResult r = server.serve(program, device);
  EXPECT_EQ(r.rung, ServeRung::PolishedStored);
  EXPECT_TRUE(validator.legal(r.plan));
  EXPECT_NE(r.plan.group_of(a), r.plan.group_of(b)) << "the illegal group was served";
}

TEST(PlanServer, EmptyProgramIsAPreconditionViolation) {
  const std::string dir = fresh_dir("precondition");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));
  EXPECT_THROW(server.serve(Program{}, DeviceSpec::k20x()), PreconditionError);
}

/// The acceptance invariant, in miniature: a mixed hit/miss/cross-device
/// stream under elevated objective + simulator + store faults must return a
/// legal plan for every request within its deadline.
TEST(PlanServer, MixedFaultyStreamAlwaysReturnsLegalPlansOnTime) {
  const std::string dir = fresh_dir("mixed");
  PlanStore store(store_config(dir));
  FakeTime time;
  PlanServer server(store, server_config(time));

  const std::vector<Program> programs = {motivating_example(), scale_les_rk18()};
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40()};
  std::vector<std::unique_ptr<Validator>> validators;
  for (const Program& p : programs)
    for (const DeviceSpec& d : devices)
      validators.push_back(std::make_unique<Validator>(p, d));

  ScopedFaultInjection inject(std::vector<FaultPlan>{
      {FaultSite::Objective, 0.3, 42},
      {FaultSite::Simulator, 0.1, 7},
      {FaultSite::Store, 0.2, 11},
  });
  int served = 0;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t p = 0; p < programs.size(); ++p) {
      for (std::size_t d = 0; d < devices.size(); ++d) {
        ServeRequest request;
        if (round == 3) request.deadline_s = 0.001;  // force some floors
        const ServeResult r =
            server.serve(programs[p], devices[d], request);
        ++served;
        EXPECT_TRUE(validators[p * devices.size() + d]->legal(r.plan))
            << "request " << served << " served an illegal plan";
        EXPECT_TRUE(r.deadline_met) << "request " << served << " missed";
        EXPECT_GT(r.cost_s, 0.0);
      }
    }
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, served);
  EXPECT_EQ(stats.deadline_missed, 0);
  EXPECT_EQ(stats.store_hits + stats.polished + stats.full_searches +
                stats.trivial,
            served);
  EXPECT_GT(stats.store_hits, 0) << "repeat requests must hit";
}

// ------------------------------------------- request-scoped observability

/// The full sink stack one server carries under `kfc serve-batch --events
/// --spans`: wide-event JSONL, spans, decision provenance, metrics with
/// latency buckets, and the SLO tracker.
struct ServeSinks {
  std::ostringstream events;
  TraceLog trace{events};
  SpanTracer spans;
  DecisionLog decisions{std::size_t{1} << 16};
  MetricsRegistry metrics;
  SloTracker slo;
  Telemetry telemetry;

  ServeSinks() {
    telemetry.trace = &trace;
    telemetry.spans = &spans;
    telemetry.decisions = &decisions;
    telemetry.metrics = &metrics;
    telemetry.slo = &slo;
  }
};

/// Parses the JSONL buffer and keeps the events of one type.
std::vector<JsonValue> events_of_type(const std::string& text,
                                      const std::string& type) {
  std::vector<JsonValue> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue event = JsonValue::parse(line);
    if (event.string_or("type", "") == type) out.push_back(std::move(event));
  }
  return out;
}

// The acceptance invariant of the tracing PR: replaying a faulty mixed
// stream emits exactly one wide event per request, and each wide event's
// trace id links at least one lifecycle span — plus, on search rungs, at
// least one fusion-decision provenance entry recorded under that trace.
TEST(ServeObservability, FaultyStreamEmitsOneLinkedWideEventPerRequest) {
  const std::string dir = fresh_dir("wide_events");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);

  const std::vector<Program> programs = {motivating_example(), scale_les_rk18()};
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40()};
  std::vector<std::unique_ptr<Validator>> validators;
  for (const Program& p : programs)
    for (const DeviceSpec& d : devices)
      validators.push_back(std::make_unique<Validator>(p, d));

  ScopedFaultInjection inject(std::vector<FaultPlan>{
      {FaultSite::Objective, 0.3, 42},
      {FaultSite::Simulator, 0.1, 7},
      {FaultSite::Store, 0.2, 11},
  });
  int served = 0;
  std::set<std::string> result_traces;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t p = 0; p < programs.size(); ++p) {
      for (std::size_t d = 0; d < devices.size(); ++d) {
        ServeRequest request;
        if (round == 2) request.deadline_s = 0.001;  // force some floors
        const ServeResult r = server.serve(programs[p], devices[d], request);
        ++served;
        EXPECT_TRUE(validators[p * devices.size() + d]->legal(r.plan));
        EXPECT_TRUE(r.trace_id.valid());
        result_traces.insert(r.trace_id.to_hex());
      }
    }
  }
  // Trace ids are unique per request.
  EXPECT_EQ(static_cast<int>(result_traces.size()), served);

  const std::vector<JsonValue> wide =
      events_of_type(sinks.events.str(), "serve_request");
  ASSERT_EQ(static_cast<int>(wide.size()), served);
  // One admission-side marker per request too (`kfc top` pairs the two).
  EXPECT_EQ(static_cast<int>(
                events_of_type(sinks.events.str(), "serve_start").size()),
            served);

  std::set<std::string> decision_traces;
  for (const auto& d : sinks.decisions.snapshot()) {
    if (d.trace.valid()) decision_traces.insert(d.trace.to_hex());
  }

  bool saw_full_search = false;
  for (const JsonValue& event : wide) {
    const std::string hex = event.string_or("trace", "");
    ASSERT_EQ(hex.size(), 32u);
    const TraceId id = TraceId::from_hex(hex);
    ASSERT_TRUE(id.valid());
    EXPECT_TRUE(result_traces.count(hex))
        << "wide event names a trace no ServeResult carries";
    EXPECT_GE(sinks.spans.spans_with_trace(id), 1)
        << "no lifecycle spans recorded under trace " << hex;
    if (event.string_or("rung", "") == "full_search") {
      saw_full_search = true;
      EXPECT_TRUE(decision_traces.count(hex))
          << "search-rung request left no decision provenance, trace " << hex;
    }
  }
  EXPECT_TRUE(saw_full_search) << "the stream never exercised the search rung";
}

TEST(ServeObservability, SloAndMetricsReconcileExactlyWithServerStats) {
  const std::string dir = fresh_dir("slo_stats");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);

  const Program program = motivating_example();
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40()};
  for (int round = 0; round < 3; ++round) {
    for (const DeviceSpec& d : devices) {
      ServeRequest request;
      if (round == 1) request.deadline_s = 0.001;  // trivial floors
      server.serve(program, d, request);
    }
  }

  const PlanServer::Stats stats = server.stats();
  const SloTracker::Report rep = sinks.slo.report(time.now);
  EXPECT_EQ(rep.total_requests, stats.requests);
  EXPECT_EQ(rep.total_deadline_misses, stats.deadline_missed);
  EXPECT_EQ(rep.total_degraded, stats.degraded);
  // SLO rung ordinals mirror the ServeRung ladder order.
  EXPECT_EQ(rep.rung_count[0], stats.store_hits);
  EXPECT_EQ(rep.rung_count[1], stats.polished);
  EXPECT_EQ(rep.rung_count[2], stats.full_searches);
  EXPECT_EQ(rep.rung_count[3], stats.trivial);

  EXPECT_EQ(sinks.metrics.counter_value("serve.requests_total"), stats.requests);
  EXPECT_EQ(sinks.metrics.counter_value("serve.deadline_missed_total"),
            stats.deadline_missed);
  EXPECT_EQ(sinks.metrics.counter_value("serve.degraded_total"), stats.degraded);
  const MetricsRegistry::HistogramSnapshot latency =
      sinks.metrics.histogram("serve.latency_seconds");
  EXPECT_EQ(static_cast<long>(latency.count), stats.requests);
  ASSERT_FALSE(latency.buckets.empty());  // the server declares the buckets
}

TEST(ServeObservability, ServingIsBitIdenticalWithTelemetryAttached) {
  struct Observation {
    std::string plan;
    double cost_s = 0.0;
    ServeRung rung = ServeRung::TrivialFloor;
  };
  struct Run {
    std::vector<Observation> served;
    PlanServer::Stats server;
    PlanStore::Stats store;
  };
  const std::vector<Program> programs = {motivating_example(), scale_les_rk18()};
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(), DeviceSpec::k40(),
                                           DeviceSpec::gtx750ti()};

  const auto run_stream = [&](const std::string& dir, const Telemetry* telemetry) {
    PlanStore::Config store_cfg = store_config(dir);
    store_cfg.telemetry = telemetry;
    PlanStore store(store_cfg);
    FakeTime time;
    PlanServerConfig cfg = server_config(time);
    cfg.telemetry = telemetry;
    PlanServer server(store, cfg);
    Run out;
    for (int round = 0; round < 2; ++round) {
      for (const Program& p : programs) {
        for (const DeviceSpec& d : devices) {
          const ServeResult r = server.serve(p, d);
          out.served.push_back({r.plan.to_string(), r.cost_s, r.rung});
        }
      }
    }
    out.server = server.stats();
    out.store = store.stats();
    return out;
  };

  const Run plain = run_stream(fresh_dir("ident_plain"), nullptr);
  // Every sink `kfc serve-batch` can attach, the recorder tees included.
  ServeSinks sinks;
  FlightRecorder recorder;
  CalibrationTracker calibration;
  sinks.spans.set_recorder(&recorder);
  sinks.decisions.set_recorder(&recorder);
  Telemetry telemetry = sinks.telemetry;
  telemetry.recorder = &recorder;
  telemetry.calibration = &calibration;
  const Run traced = run_stream(fresh_dir("ident_traced"), &telemetry);

  ASSERT_EQ(plain.served.size(), traced.served.size());
  for (std::size_t i = 0; i < plain.served.size(); ++i) {
    EXPECT_EQ(traced.served[i].plan, plain.served[i].plan) << "request " << i;
    EXPECT_DOUBLE_EQ(traced.served[i].cost_s, plain.served[i].cost_s) << "request " << i;
    EXPECT_EQ(traced.served[i].rung, plain.served[i].rung) << "request " << i;
  }
  // Observing must not change what is observed: every run counter matches.
  // (coalesce_waiting is a point-in-time gauge, not a run counter.)
  const auto counters = [](const PlanServer::Stats& s) {
    return std::vector<long>{s.requests, s.store_hits, s.polished, s.full_searches,
                             s.trivial, s.degraded, s.queued, s.rejected,
                             s.rejected_overload, s.retries, s.deadline_missed,
                             s.writebacks, s.writeback_failures, s.invalid_stored,
                             s.coalesced, s.coalesce_timeouts};
  };
  EXPECT_EQ(counters(traced.server), counters(plain.server));
  EXPECT_EQ(traced.store.puts, plain.store.puts);
  EXPECT_EQ(traced.store.gets, plain.store.gets);
  EXPECT_EQ(traced.store.hits, plain.store.hits);
  // ...and the sinks actually observed the traced stream.
  EXPECT_GT(sinks.spans.recorded(), 0);
  EXPECT_GT(sinks.slo.recorded(), 0);
  EXPECT_EQ(recorder.state().requests_total.load(std::memory_order_relaxed),
            plain.server.requests);
}

TEST(ServeObservability, TraceIdsAreReplayStableAndStageLedgerIsBounded) {
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();

  const auto run_stream = [&](const std::string& dir) {
    PlanStore store(store_config(dir));
    FakeTime time;
    PlanServer server(store, server_config(time));
    std::vector<ServeResult> out;
    for (int i = 0; i < 3; ++i) out.push_back(server.serve(program, device));
    return out;
  };

  const std::vector<ServeResult> first = run_stream(fresh_dir("replay_a"));
  const std::vector<ServeResult> second = run_stream(fresh_dir("replay_b"));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i].trace_id.valid());
    // Same batch, same ordinal -> same trace id.
    EXPECT_EQ(first[i].trace_id, second[i].trace_id) << "request " << i;
    // The stage ledger never claims more than the measured latency.
    double consumed = 0.0;
    for (double s : first[i].stage_s) {
      EXPECT_GE(s, 0.0);
      consumed += s;
    }
    EXPECT_LE(consumed, first[i].latency_s + 1e-9);
  }
}

TEST(ServeObservability, PrometheusExportCoversServeFamiliesWithExemplars) {
  const std::string dir = fresh_dir("prom");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  FakeTime time;
  PlanServerConfig cfg = server_config(time);
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);

  const Program program = motivating_example();
  for (int i = 0; i < 4; ++i) server.serve(program, DeviceSpec::k20x());

  const std::string text = prometheus_render(sinks.metrics);
  EXPECT_NE(text.find("# TYPE kf_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_requests_total 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kf_serve_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("kf_serve_latency_seconds_count 4\n"), std::string::npos);
  // At least one latency bucket carries a request trace as its exemplar.
  EXPECT_NE(text.find(" # {trace_id=\""), std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

// ------------------------------------------------------------ ServeEngine
//
// Worker-pool tests run on the real clock: condition-variable rendezvous
// (queue handoff, coalescing) needs real concurrency, which the fake clock
// cannot drive. Determinism comes from structure instead — the
// test_coalesce_hold hook parks a coalescing leader until the test has
// observed (via stats) exactly the interleaving it wants to assert about.

/// Spins (real time) until `pred` holds; false on timeout — tests assert
/// the result so a broken interleaving fails loudly instead of hanging.
bool spin_until(const std::function<bool()>& pred, double timeout_s = 30.0) {
  const auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() > timeout_s)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(BoundedQueue, TryPushShedsWhenFullAndCloseStillDrains) {
  BoundedQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_TRUE(q.try_push(std::move(b)));
  EXPECT_FALSE(q.try_push(std::move(c))) << "capacity 2 must shed the third";
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_TRUE(q.try_push(std::move(c)));
  EXPECT_EQ(q.peak_size(), 2u);
  q.close();
  int d = 4;
  EXPECT_FALSE(q.try_push(std::move(d))) << "closed queue refuses producers";
  EXPECT_FALSE(q.push(std::move(d))) << "blocking push also refuses after close";
  // close() never drops queued work: both survivors drain, then end-of-stream.
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(ServeEngine, WorkerPoolIsBitIdenticalToSerialOnStoreHits) {
  const std::string dir = fresh_dir("engine_identical");
  PlanStore store(store_config(dir));
  PlanServer server(store, PlanServerConfig{});
  const Program program = motivating_example();
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(),
                                           DeviceSpec::k40()};
  // Warm both keys once so the replayed stream is the steady-state
  // store-hit workload the replay-stability contract covers.
  for (const DeviceSpec& d : devices) server.serve(program, d);

  const int requests = 40;
  std::vector<std::string> serial;
  for (int i = 0; i < requests; ++i) {
    const ServeResult r =
        server.serve(program, devices[static_cast<std::size_t>(i) % 2]);
    EXPECT_EQ(r.rung, ServeRung::StoreHit);
    EXPECT_EQ(r.worker_id, -1) << "direct calls carry no worker id";
    serial.push_back(r.plan.to_string() + "|" + to_string(r.rung));
  }

  ServeEngine engine(server, ServeEngineConfig{.workers = 4,
                                               .queue_capacity = 16,
                                               .shed_on_full = false});
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < requests; ++i)
    futures.push_back(
        engine.submit(program, devices[static_cast<std::size_t>(i) % 2]));
  for (int i = 0; i < requests; ++i) {
    const ServeResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(serial[static_cast<std::size_t>(i)],
              r.plan.to_string() + "|" + to_string(r.rung))
        << "request " << i << " diverged from the serial replay";
    EXPECT_GE(r.worker_id, 0);
    EXPECT_LT(r.worker_id, 4);
    EXPECT_GE(r.queue_wait_s, 0.0);
  }
  engine.drain();
  const ServeEngine::Stats es = engine.stats();
  EXPECT_EQ(es.submitted, requests);
  EXPECT_EQ(es.completed, requests);
  EXPECT_EQ(es.rejected_overload, 0);
}

TEST(ServeEngine, QueueFullShedsToRejectedOverloadFloor) {
  const std::string dir = fresh_dir("engine_overload");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  PlanServerConfig cfg;
  cfg.telemetry = &sinks.telemetry;
  cfg.test_coalesce_hold = [&] {
    held = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  Validator validator(program, device);

  ServeEngine engine(server, ServeEngineConfig{.workers = 1,
                                               .queue_capacity = 1,
                                               .shed_on_full = true});
  // A: a miss — its leader parks in the hold with the queue empty again.
  std::future<ServeResult> fa = engine.submit(program, device);
  ASSERT_TRUE(spin_until([&] { return held.load(); }));
  // B fills the one-slot queue; C finds it full and is shed inline.
  std::future<ServeResult> fb = engine.submit(program, device);
  std::future<ServeResult> fc = engine.submit(program, device);
  ASSERT_EQ(fc.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "a shed request must be answered inline, not queued";
  const ServeResult rejected = fc.get();
  EXPECT_EQ(rejected.admission, AdmissionOutcome::RejectedOverload);
  EXPECT_EQ(rejected.rung, ServeRung::TrivialFloor);
  EXPECT_TRUE(rejected.degraded);
  EXPECT_TRUE(validator.legal(rejected.plan))
      << "overload sheds work, never correctness";
  EXPECT_EQ(rejected.plan.num_groups(), rejected.num_kernels)
      << "the overload floor is the identity plan";

  release = true;
  EXPECT_TRUE(validator.legal(fa.get().plan));
  EXPECT_TRUE(validator.legal(fb.get().plan));
  engine.drain();

  EXPECT_EQ(engine.stats().rejected_overload, 1);
  EXPECT_EQ(server.stats().rejected_overload, 1);
  EXPECT_EQ(sinks.metrics.counter_value("serve.queue_rejected_total"), 1);
  EXPECT_EQ(sinks.metrics.counter_value("serve.requests_total"), 3);
}

TEST(ServeEngine, CoalescedMissFansOutBitIdenticalPlansToAllWaiters) {
  const std::string dir = fresh_dir("engine_coalesce");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  PlanServerConfig cfg;
  cfg.telemetry = &sinks.telemetry;
  PlanServer* server_ptr = nullptr;
  // The leader parks until both followers are provably waiting on its
  // flight, so the fan-out below is structural, not a timing accident.
  cfg.test_coalesce_hold = [&] {
    ASSERT_TRUE(spin_until(
        [&] { return server_ptr->stats().coalesce_waiting >= 2; }));
  };
  PlanServer server(store, cfg);
  server_ptr = &server;
  const Program program = motivating_example();
  const DeviceSpec device = DeviceSpec::k20x();
  Validator validator(program, device);

  ServeEngine engine(server, ServeEngineConfig{.workers = 4,
                                               .queue_capacity = 16,
                                               .shed_on_full = false});
  ServeRequest req;
  req.deadline_s = 60.0;  // followers must not time out under CI load
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(engine.submit(program, device, req));
  std::vector<ServeResult> results;
  for (auto& f : futures) results.push_back(f.get());
  engine.drain();

  int coalesced = 0;
  for (const ServeResult& r : results) {
    EXPECT_EQ(r.rung, ServeRung::FullSearch);
    EXPECT_FALSE(r.degraded);
    EXPECT_TRUE(validator.legal(r.plan));
    EXPECT_EQ(r.plan.to_string(), results[0].plan.to_string())
        << "every waiter must receive the leader's exact plan";
    EXPECT_DOUBLE_EQ(r.cost_s, results[0].cost_s);
    if (r.coalesced) {
      ++coalesced;
      EXPECT_GT(r.stage_s[RequestContext::kCoalesceWait], 0.0)
          << "a coalesced request charges its wait to the stage ledger";
    }
  }
  EXPECT_EQ(coalesced, 2) << "one leader, two coalesced followers";
  EXPECT_EQ(server.stats().coalesced, 2);
  EXPECT_EQ(server.stats().coalesce_timeouts, 0);
  EXPECT_EQ(sinks.metrics.counter_value("serve.coalesced_total"), 2);
  // The collapse is real: one search, one write-back, for three requests.
  EXPECT_EQ(store.stats().puts, 1);
  EXPECT_EQ(server.stats().writebacks, 1);
}

TEST(ServeEngine, DrainCompletesInFlightWorkThenRefusesNewRequests) {
  const std::string dir = fresh_dir("engine_drain");
  PlanStore store(store_config(dir));
  std::atomic<bool> armed{false};
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  PlanServerConfig cfg;
  // The warm-up serve below is itself a miss (and so a leader); the hold
  // only engages once armed, i.e. for the engine-submitted miss.
  cfg.test_coalesce_hold = [&] {
    if (!armed.load()) return;
    held = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  const DeviceSpec miss_device = DeviceSpec::k20x();
  const DeviceSpec hit_device = DeviceSpec::k40();
  server.serve(program, hit_device);  // warm one key for store hits
  armed = true;

  ServeEngine engine(server, ServeEngineConfig{.workers = 2,
                                               .queue_capacity = 8,
                                               .shed_on_full = false});
  // One in-flight miss (parked in the hold) plus queued store hits.
  std::future<ServeResult> miss = engine.submit(program, miss_device);
  ASSERT_TRUE(spin_until([&] { return held.load(); }));
  std::vector<std::future<ServeResult>> hits;
  for (int i = 0; i < 4; ++i) hits.push_back(engine.submit(program, hit_device));

  std::thread drainer([&] { engine.drain(); });
  release = true;  // let the in-flight miss finish; drain must wait for it
  drainer.join();

  // The k40 warm-up shares the program fingerprint, so the k20x miss
  // polishes that stored plan rather than searching from scratch — the
  // point here is only that drain completed it instead of dropping it.
  EXPECT_EQ(miss.get().rung, ServeRung::PolishedStored)
      << "drain completes in-flight work instead of dropping it";
  for (auto& f : hits) EXPECT_EQ(f.get().rung, ServeRung::StoreHit);
  EXPECT_EQ(engine.stats().completed, 5);

  // The drained engine still answers — with the overload floor.
  const ServeResult after = engine.submit(program, hit_device).get();
  EXPECT_EQ(after.admission, AdmissionOutcome::RejectedOverload);
  EXPECT_EQ(after.rung, ServeRung::TrivialFloor);
  EXPECT_EQ(engine.stats().rejected_overload, 1);
}

// TSan fodder: hammer one server from a full-width pool across several
// keys at once — shared store (shared_mutex), shared contexts (call_once),
// shared group-cost cache, coalescing map and telemetry sinks all under
// real contention. Correctness assert: every response legal, every
// store-hit response identical per key.
TEST(ServeEngine, ConcurrentMixedKeyHammerStaysLegalAndDeterministic) {
  const std::string dir = fresh_dir("engine_hammer");
  PlanStore store(store_config(dir));
  ServeSinks sinks;
  PlanServerConfig cfg;
  cfg.telemetry = &sinks.telemetry;
  PlanServer server(store, cfg);
  const Program program = motivating_example();
  const std::vector<DeviceSpec> devices = {DeviceSpec::k20x(),
                                           DeviceSpec::k40()};
  std::vector<std::string> expected;
  for (const DeviceSpec& d : devices)
    expected.push_back(server.serve(program, d).plan.to_string());

  const int requests = 64;
  ServeEngine engine(server, ServeEngineConfig{.workers = 8,
                                               .queue_capacity = 32,
                                               .shed_on_full = false});
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < requests; ++i)
    futures.push_back(
        engine.submit(program, devices[static_cast<std::size_t>(i) % 2]));
  for (int i = 0; i < requests; ++i) {
    const ServeResult r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.rung, ServeRung::StoreHit);
    EXPECT_EQ(r.plan.to_string(), expected[static_cast<std::size_t>(i) % 2]);
  }
  engine.drain();
  const PlanServer::Stats s = server.stats();
  EXPECT_EQ(s.requests, requests + 2);
  EXPECT_EQ(s.store_hits, requests + 2 - 2);
  EXPECT_EQ(sinks.metrics.counter_value("serve.requests_total"), requests + 2);
}

}  // namespace
}  // namespace kf
