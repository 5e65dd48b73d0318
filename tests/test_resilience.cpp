// Resilience tests: deterministic fault injection, objective quarantine,
// the SearchDriver's deadline / evaluation-budget / fault-storm stops, and
// HGGA checkpoint/resume bit-identity.
//
// CI runs this suite twice: once as checked in, once with
// KF_TEST_FAULT_RATE raised (see .github/workflows/ci.yml) to stress the
// quarantine path harder than the default 20% rate.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "apps/testsuite.hpp"
#include "ir/program_io.hpp"
#include "model/proposed_model.hpp"
#include "search/checkpoint.hpp"
#include "search/driver.hpp"
#include "search/hgga.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/fs_io.hpp"

namespace kf {
namespace {

struct Rig {
  Program program;
  DeviceSpec device = DeviceSpec::k20x();
  TimingSimulator sim{device};
  LegalityChecker checker;
  ProposedModel model{device};
  Objective objective;

  explicit Rig(Program p, Objective::Options options = {})
      : program(std::move(p)),
        checker(program, device),
        objective(checker, model, sim, options) {}
};

/// Fault rate for the storm-style tests; CI raises it via KF_TEST_FAULT_RATE.
double env_fault_rate(double fallback) {
  const char* v = std::getenv("KF_TEST_FAULT_RATE");
  return v != nullptr ? std::stod(v) : fallback;
}

std::vector<KernelId> first_legal_pair(const LegalityChecker& checker) {
  const int n = checker.program().num_kernels();
  for (KernelId a = 0; a < n; ++a) {
    for (KernelId b = static_cast<KernelId>(a + 1); b < n; ++b) {
      const std::vector<KernelId> g{a, b};
      if (checker.group_is_legal(g)) return g;
    }
  }
  ADD_FAILURE() << "program has no legal fused pair";
  return {};
}

// ---------- FaultInjector ----------

TEST(FaultInjection, ParsesInjectSpecs) {
  const FaultPlan p = parse_fault_plan("objective:0.2:42");
  EXPECT_EQ(p.site, FaultSite::Objective);
  EXPECT_DOUBLE_EQ(p.rate, 0.2);
  EXPECT_EQ(p.seed, 42u);

  const FaultPlan q = parse_fault_plan("parser:1");
  EXPECT_EQ(q.site, FaultSite::Parser);
  EXPECT_DOUBLE_EQ(q.rate, 1.0);
  EXPECT_EQ(q.seed, 0u);

  EXPECT_THROW(parse_fault_plan("bogus:0.2"), PreconditionError);
  EXPECT_THROW(parse_fault_plan("objective"), PreconditionError);
  EXPECT_THROW(parse_fault_plan("objective:nope"), PreconditionError);
  EXPECT_THROW(parse_fault_plan("objective:1.5"), PreconditionError);
  EXPECT_THROW(parse_fault_plan(""), PreconditionError);
}

TEST(FaultInjection, SiteNamesRoundTrip) {
  for (int s = 0; s < kNumFaultSites; ++s) {
    const FaultSite site = static_cast<FaultSite>(s);
    EXPECT_EQ(fault_site_from_string(to_string(site)), site);
  }
  EXPECT_THROW(fault_site_from_string("nope"), PreconditionError);
}

TEST(FaultInjection, DecisionIsAPureFunctionOfSeedSiteAndKey) {
  FaultInjector& inj = FaultInjector::instance();
  std::vector<bool> first;
  {
    ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 0.5, 7});
    for (std::uint64_t k = 0; k < 512; ++k) first.push_back(inj.should_inject(FaultSite::Objective, k));
  }
  {
    ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 0.5, 7});
    for (std::uint64_t k = 0; k < 512; ++k) {
      EXPECT_EQ(inj.should_inject(FaultSite::Objective, k), first[static_cast<std::size_t>(k)]) << k;
    }
  }
  // A different seed flips at least one decision.
  {
    ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 0.5, 8});
    bool any_differ = false;
    for (std::uint64_t k = 0; k < 512; ++k) {
      any_differ = any_differ || inj.should_inject(FaultSite::Objective, k) !=
                                     first[static_cast<std::size_t>(k)];
    }
    EXPECT_TRUE(any_differ);
  }
}

TEST(FaultInjection, RateExtremesAndCalibration) {
  FaultInjector& inj = FaultInjector::instance();
  {
    ScopedFaultInjection arm(FaultPlan{FaultSite::Simulator, 0.0, 1});
    for (std::uint64_t k = 0; k < 200; ++k) EXPECT_FALSE(inj.should_inject(FaultSite::Simulator, k));
  }
  {
    ScopedFaultInjection arm(FaultPlan{FaultSite::Simulator, 1.0, 1});
    for (std::uint64_t k = 0; k < 200; ++k) EXPECT_TRUE(inj.should_inject(FaultSite::Simulator, k));
  }
  {
    ScopedFaultInjection arm(FaultPlan{FaultSite::Simulator, 0.3, 9});
    inj.reset_counters();
    for (std::uint64_t k = 0; k < 10000; ++k) inj.should_inject(FaultSite::Simulator, k);
    EXPECT_EQ(inj.draws(FaultSite::Simulator), 10000);
    const double frac =
        static_cast<double>(inj.injected(FaultSite::Simulator)) / 10000.0;
    EXPECT_NEAR(frac, 0.3, 0.05);
  }
}

TEST(FaultInjection, DisarmedSitesNeverFire) {
  FaultInjector& inj = FaultInjector::instance();
  EXPECT_FALSE(inj.armed(FaultSite::Parser));
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(inj.should_inject(FaultSite::Parser, k));
  {
    ScopedFaultInjection arm(FaultPlan{FaultSite::Parser, 1.0, 3});
    EXPECT_TRUE(inj.armed(FaultSite::Parser));
  }
  EXPECT_FALSE(inj.armed(FaultSite::Parser));  // scope disarms
}

TEST(FaultInjection, MaybeThrowNamesTheSite) {
  ScopedFaultInjection arm(FaultPlan{FaultSite::Projection, 1.0, 5});
  try {
    FaultInjector::instance().maybe_throw(FaultSite::Projection, 123, "model failed");
    FAIL() << "did not throw";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("[injected projection fault]"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjection, FaultKeyIsOrderInsensitive) {
  const std::vector<KernelId> a{1, 2, 3};
  const std::vector<KernelId> b{3, 1, 2};
  const std::vector<KernelId> c{1, 2, 4};
  EXPECT_EQ(fault_key(a), fault_key(b));
  EXPECT_NE(fault_key(a), fault_key(c));
}

// ---------- Objective quarantine & penalty paths ----------

TEST(ObjectiveResilience, QuarantinesInjectedFaultsAtPenaltyCost) {
  Rig rig(motivating_example(GridDims{256, 128, 16}));
  const std::vector<KernelId> pair = first_legal_pair(rig.checker);
  const double original_sum =
      rig.objective.original_time(pair[0]) + rig.objective.original_time(pair[1]);

  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 42});
  const Objective::GroupCost cost = rig.objective.group_cost(pair);
  EXPECT_FALSE(cost.profitable);
  EXPECT_DOUBLE_EQ(cost.cost_s, original_sum * 1.05);
  EXPECT_EQ(rig.objective.faults(), 1);
  ASSERT_EQ(rig.objective.cache_stats().quarantined, 1);

  // Re-evaluation short-circuits on the quarantine set: no second fault.
  const Objective::GroupCost again = rig.objective.group_cost(pair);
  EXPECT_DOUBLE_EQ(again.cost_s, cost.cost_s);
  EXPECT_EQ(rig.objective.faults(), 1);
}

TEST(ObjectiveResilience, PropagatesWhenQuarantineDisabled) {
  Objective::Options options;
  options.quarantine_faults = false;
  Rig rig(motivating_example(GridDims{256, 128, 16}), options);
  const std::vector<KernelId> pair = first_legal_pair(rig.checker);

  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 42});
  EXPECT_THROW(rig.objective.group_cost(pair), RuntimeError);
  // PreconditionError (caller misuse) is never quarantined either way.
  EXPECT_THROW(rig.objective.group_cost(std::vector<KernelId>{}), PreconditionError);
}

TEST(ObjectiveResilience, SingletonsAreNeverInjected) {
  Rig rig(motivating_example(GridDims{256, 128, 16}));
  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 42});
  for (KernelId k = 0; k < rig.program.num_kernels(); ++k) {
    EXPECT_NO_THROW(rig.objective.group_cost(std::vector<KernelId>{k}));
  }
  EXPECT_EQ(rig.objective.faults(), 0);
}

TEST(ObjectiveResilience, OriginalProfilingSurvivesSimulatorInjection) {
  // run_original delegates to TimingSimulator::run; the injection hook is
  // gated on fused launches so objectives can still profile ground truth.
  ScopedFaultInjection arm(FaultPlan{FaultSite::Simulator, 1.0, 13});
  Rig rig(motivating_example(GridDims{256, 128, 16}));
  EXPECT_GT(rig.objective.baseline_cost(), 0.0);
  EXPECT_EQ(rig.objective.faults(), 0);
}

/// A model that always projects worse than the original sum: exercises the
/// genuine (non-injected) unprofitable-penalty path of constraint (1.1).
class PessimalModel : public ProjectionModel {
 public:
  const std::string& name() const noexcept override {
    static const std::string n = "pessimal";
    return n;
  }

 protected:
  Projection project_impl(const Program&, const LaunchDescriptor&) const override {
    Projection p;
    p.time_s = 1.0;  // one full second; no stencil kernel is this slow
    return p;
  }
};

/// A model that proves every fusion infeasible.
class InfeasibleModel : public ProjectionModel {
 public:
  const std::string& name() const noexcept override {
    static const std::string n = "infeasible";
    return n;
  }

 protected:
  Projection project_impl(const Program&, const LaunchDescriptor&) const override {
    Projection p;
    p.feasible = false;
    p.infeasible_reason = "always";
    return p;
  }
};

TEST(ObjectiveResilience, UnprofitableProjectionCostsPenalisedOriginalSum) {
  const Program program = motivating_example(GridDims{256, 128, 16});
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(program, device);
  const PessimalModel model;
  const Objective objective(checker, model, sim);

  const std::vector<KernelId> pair = first_legal_pair(checker);
  const double original_sum =
      objective.original_time(pair[0]) + objective.original_time(pair[1]);
  const Objective::GroupCost cost = objective.group_cost(pair);
  EXPECT_FALSE(cost.profitable);
  EXPECT_DOUBLE_EQ(cost.cost_s, original_sum * 1.05);
  EXPECT_EQ(objective.faults(), 0);  // unprofitable is not a fault
}

TEST(ObjectiveResilience, InfeasibleProjectionCostsPenalisedOriginalSum) {
  const Program program = motivating_example(GridDims{256, 128, 16});
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(program, device);
  const InfeasibleModel model;
  const Objective objective(checker, model, sim);

  const std::vector<KernelId> pair = first_legal_pair(checker);
  const double original_sum =
      objective.original_time(pair[0]) + objective.original_time(pair[1]);
  const Objective::GroupCost cost = objective.group_cost(pair);
  EXPECT_FALSE(cost.profitable);
  EXPECT_DOUBLE_EQ(cost.cost_s, original_sum * 1.05);
}

// ---------- Parser injection ----------

TEST(ParserResilience, InjectedParserFaultsAbortTheParse) {
  const std::string text = to_text(motivating_example());
  EXPECT_NO_THROW(parse_program(text));
  ScopedFaultInjection arm(FaultPlan{FaultSite::Parser, 1.0, 1});
  try {
    parse_program(text);
    FAIL() << "did not throw";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("injected parser fault"), std::string::npos);
  }
}

// ---------- SearchDriver ----------

TEST(SearchDriver, RejectsBadConfigs) {
  Rig rig(motivating_example(GridDims{256, 128, 16}));
  DriverConfig bad;
  bad.limits.deadline_s = -1.0;
  EXPECT_THROW(SearchDriver(rig.objective, bad), PreconditionError);

  DriverConfig ckpt_non_hgga;
  ckpt_non_hgga.method = SearchMethod::Greedy;
  ckpt_non_hgga.checkpointing.file = "x.ckpt";
  EXPECT_THROW(SearchDriver(rig.objective, ckpt_non_hgga), PreconditionError);
}

TEST(SearchDriver, CheckpointProblemsAbortBeforeTheSearchStarts) {
  // These must escape the driver's salvage net: an unwritable checkpoint
  // path or an unusable checkpoint under --resume would otherwise silently
  // degrade into an unprotected (or fresh) run.
  Rig rig(motivating_example(GridDims{256, 128, 16}));

  DriverConfig unwritable;
  unwritable.checkpointing.file = "/nonexistent-dir/x.ckpt";
  EXPECT_THROW(SearchDriver(rig.objective, unwritable).run(), RuntimeError);

  DriverConfig missing;
  missing.checkpointing.file = "/nonexistent-dir/x.ckpt";
  missing.checkpointing.resume = true;
  EXPECT_THROW(SearchDriver(rig.objective, missing).run(), RuntimeError);

  const std::string path = testing::TempDir() + "kf_driver_mismatch.ckpt";
  DriverConfig save;
  save.hgga.population = 8;
  save.hgga.max_generations = 2;
  save.hgga.seed = 11;
  save.checkpointing.file = path;
  SearchDriver(rig.objective, save).run();

  DriverConfig other_seed = save;
  other_seed.hgga.seed = 12;
  other_seed.checkpointing.resume = true;
  EXPECT_THROW(SearchDriver(rig.objective, other_seed).run(), RuntimeError);
  std::remove(path.c_str());
}

TEST(SearchDriver, MethodNamesRoundTrip) {
  for (SearchMethod m : {SearchMethod::Hgga, SearchMethod::Greedy,
                         SearchMethod::Annealing, SearchMethod::Random,
                         SearchMethod::Exhaustive}) {
    EXPECT_EQ(search_method_from_string(to_string(m)), m);
  }
  EXPECT_THROW(search_method_from_string("simulated-annealing"), PreconditionError);
}

TEST(SearchDriver, InstantDeadlineStillReturnsALegalPlanForEveryMethod) {
  // fig3: small enough for the exhaustive method's kernel cap.
  Rig rig(motivating_example(GridDims{256, 128, 16}));
  for (SearchMethod m : {SearchMethod::Hgga, SearchMethod::Greedy,
                         SearchMethod::Annealing, SearchMethod::Random,
                         SearchMethod::Exhaustive}) {
    DriverConfig cfg;
    cfg.method = m;
    cfg.limits.deadline_s = 1e-9;
    const SearchResult result = SearchDriver(rig.objective, cfg).run();
    EXPECT_TRUE(rig.checker.plan_is_legal(result.best)) << to_string(m);
    EXPECT_EQ(result.fault_report.stop_reason, StopReason::Deadline) << to_string(m);
    EXPECT_LE(result.best_cost_s, result.baseline_cost_s * (1.0 + 1e-12)) << to_string(m);
  }
}

TEST(SearchDriver, DeadlineStopsLongHggaNearTheBudget) {
  TestSuiteConfig suite;
  suite.kernels = 24;
  suite.arrays = 48;
  suite.seed = 3;
  suite.grid = GridDims{256, 128, 16};
  Rig rig(make_testsuite_program(suite));

  DriverConfig cfg;
  cfg.limits.deadline_s = 0.25;
  cfg.hgga.population = 16;
  cfg.hgga.max_generations = 1000000;
  cfg.hgga.stall_generations = 1000000;
  cfg.hgga.seed = 5;
  const SearchResult result = SearchDriver(rig.objective, cfg).run();
  EXPECT_EQ(result.fault_report.stop_reason, StopReason::Deadline);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  // Generation granularity on a small program: well under 10x the deadline.
  EXPECT_LT(result.runtime_s, 2.5);
  EXPECT_GT(result.generations, 0);
}

TEST(SearchDriver, EvaluationBudgetStops) {
  Rig rig(scale_les_rk18());
  DriverConfig cfg;
  cfg.limits.max_evaluations = 500;
  cfg.hgga.population = 16;
  cfg.hgga.max_generations = 100000;
  cfg.hgga.stall_generations = 100000;
  const SearchResult result = SearchDriver(rig.objective, cfg).run();
  EXPECT_EQ(result.fault_report.stop_reason, StopReason::EvaluationBudget);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
}

TEST(SearchDriver, FaultStormThresholdStops) {
  Rig rig(scale_les_rk18());
  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 6});
  DriverConfig cfg;
  cfg.limits.max_faults = 1;
  cfg.hgga.population = 16;
  cfg.hgga.max_generations = 100;
  const SearchResult result = SearchDriver(rig.objective, cfg).run();
  EXPECT_EQ(result.fault_report.stop_reason, StopReason::FaultStorm);
  EXPECT_GE(result.fault_report.faults, 1);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
}

TEST(SearchDriver, RecoversWhenAMethodThrows) {
  // quarantine off + certain injection: the first fused evaluation throws
  // out of Hgga::run; the driver must salvage a legal identity result.
  Objective::Options options;
  options.quarantine_faults = false;
  Rig rig(scale_les_rk18(), options);
  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 6});

  DriverConfig cfg;
  cfg.hgga.population = 8;
  cfg.hgga.max_generations = 10;
  const SearchResult result = SearchDriver(rig.objective, cfg).run();
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_EQ(result.best, FusionPlan(rig.program.num_kernels()));
  EXPECT_DOUBLE_EQ(result.best_cost_s, rig.objective.baseline_cost());
  EXPECT_EQ(result.fault_report.stop_reason, StopReason::FaultStorm);
}

// ---------- acceptance: HGGA under a 20% objective fault rate ----------

TEST(SearchDriver, HggaSurvivesInjectedObjectiveFaultStorm) {
  const double rate = env_fault_rate(0.2);

  Rig clean(scale_les_rk18());
  DriverConfig cfg;
  cfg.hgga.population = 24;
  cfg.hgga.max_generations = 40;
  cfg.hgga.stall_generations = 40;
  cfg.hgga.seed = 7;
  const SearchResult clean_result = SearchDriver(clean.objective, cfg).run();
  ASSERT_TRUE(clean.checker.plan_is_legal(clean_result.best));

  Rig faulty(scale_les_rk18());
  SearchResult faulty_result;
  {
    ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, rate, 42});
    faulty_result = SearchDriver(faulty.objective, cfg).run();
  }
  EXPECT_TRUE(faulty.checker.plan_is_legal(faulty_result.best));
  EXPECT_GT(faulty_result.fault_report.faults, 0);
  // On a fresh objective every quarantined member set faulted in this run.
  EXPECT_GT(faulty_result.fault_report.quarantined, 0);
  EXPECT_LE(faulty_result.fault_report.quarantined, faulty_result.fault_report.faults);
  EXPECT_EQ(faulty_result.fault_report.stop_reason, StopReason::Converged);

  // Judged by a fault-free objective, the faulty run's plan stays within
  // 1.25x of the fault-free best.
  const double faulty_best_clean_cost = clean.objective.plan_cost(faulty_result.best);
  EXPECT_LE(faulty_best_clean_cost, 1.25 * clean_result.best_cost_s)
      << "fault rate " << rate << " degraded the plan beyond tolerance";
}

// ---------- checkpoint/resume ----------

TEST(Checkpoint, RoundTripIsLossless) {
  HggaCheckpoint ck;
  ck.program_name = "demo program";
  ck.num_kernels = 4;
  ck.seed = 99;
  ck.generation = 12;
  ck.stall = 3;
  ck.rng_state = {1, 2, 3, 0xffffffffffffffffULL};
  ck.best = FusionPlan::from_groups(4, {{2, 0}, {1}, {3}});  // raw, non-canonical
  ck.best_cost = 0.1 + 0.2;  // a value with an inexact binary expansion
  ck.population.push_back(FusionPlan::from_groups(4, {{3, 1}, {0, 2}}));
  ck.population.push_back(FusionPlan(4));
  ck.costs = {1.0 / 3.0, 2.0 / 7.0};
  ck.history = {0.5, 1.0 / 3.0};
  GenerationStats stats;
  stats.best_cost_s = 1e-6;
  stats.mean_cost_s = 2e-6;
  stats.worst_cost_s = 3e-6;
  stats.distinct_plans = 17;
  stats.mean_groups = 2.5;
  stats.crossovers = 41;
  stats.crossover_improved = 7;
  stats.mutations = 23;
  ck.trace.push_back(stats);

  std::ostringstream os;
  write_checkpoint(os, ck);
  std::istringstream is(os.str());
  const HggaCheckpoint back = read_checkpoint(is);

  EXPECT_EQ(back.program_name, ck.program_name);
  EXPECT_EQ(back.num_kernels, ck.num_kernels);
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.generation, ck.generation);
  EXPECT_EQ(back.stall, ck.stall);
  EXPECT_EQ(back.rng_state, ck.rng_state);
  EXPECT_EQ(back.best_cost, ck.best_cost);  // hexfloat: bit-exact
  // Raw group order survives (to_string would canonicalize {2,0} to {0,2}).
  EXPECT_EQ(back.best.groups(), ck.best.groups());
  ASSERT_EQ(back.population.size(), ck.population.size());
  for (std::size_t i = 0; i < ck.population.size(); ++i) {
    EXPECT_EQ(back.population[i].groups(), ck.population[i].groups());
  }
  EXPECT_EQ(back.costs, ck.costs);
  EXPECT_EQ(back.history, ck.history);
  ASSERT_EQ(back.trace.size(), 1u);
  EXPECT_EQ(back.trace[0].best_cost_s, stats.best_cost_s);
  EXPECT_EQ(back.trace[0].mean_cost_s, stats.mean_cost_s);
  EXPECT_EQ(back.trace[0].worst_cost_s, stats.worst_cost_s);
  EXPECT_EQ(back.trace[0].distinct_plans, stats.distinct_plans);
  EXPECT_EQ(back.trace[0].mean_groups, stats.mean_groups);
  EXPECT_EQ(back.trace[0].crossovers, stats.crossovers);
  EXPECT_EQ(back.trace[0].crossover_improved, stats.crossover_improved);
  EXPECT_EQ(back.trace[0].mutations, stats.mutations);
}

TEST(Checkpoint, RejectsTruncatedAndCorruptInput) {
  HggaCheckpoint ck;
  ck.num_kernels = 2;
  ck.best = FusionPlan(2);
  ck.best_cost = 1.0;
  ck.population.push_back(FusionPlan(2));
  ck.costs = {1.0};
  std::ostringstream os;
  write_checkpoint(os, ck);
  const std::string text = os.str();

  {
    std::istringstream is(text.substr(0, text.rfind("end")));
    EXPECT_THROW(read_checkpoint(is), RuntimeError);
  }
  {
    std::istringstream is(std::string("not a checkpoint\n"));
    EXPECT_THROW(read_checkpoint(is), RuntimeError);
  }
  {
    std::istringstream is(std::string(""));
    EXPECT_THROW(read_checkpoint(is), RuntimeError);
  }
  {
    std::string garbled = text;
    garbled.replace(garbled.find("cost="), 9, "cost=zzz ");
    std::istringstream is(garbled);
    EXPECT_THROW(read_checkpoint(is), RuntimeError);
  }
}

std::string checkpoint_fixture(const std::string& name) {
  return std::string(KF_FIXTURE_DIR) + "/bad/checkpoint/" + name;
}

/// A scratch copy of a corpus checkpoint for a resume to read: a resume
/// that wrongly went ahead would overwrite the file it resumed.
std::string resumable_copy(const std::string& name) {
  const std::string fixture = checkpoint_fixture(name);
  EXPECT_TRUE(file_exists(fixture)) << "missing fixture " << fixture;
  const std::string copy = testing::TempDir() + "kf_resume_" + name;
  std::filesystem::copy_file(fixture, copy, std::filesystem::copy_options::overwrite_existing);
  return copy;
}

/// Every checked-in bad checkpoint must fail with the typed CheckpointError
/// — one specimen per load-path failure mode (bad magic, truncation,
/// non-finite costs, oversized counts, non-partition plans, ...), so a
/// refactor of the parser cannot silently downgrade an error to a crash or
/// an accept. Each specimen must exist and fail at its own check, which the
/// message fragment pins.
struct BadCheckpointCase {
  const char* file;
  const char* message;
};

/// A case prints as its file name, so the test names stay those of the
/// corpus files.
void PrintTo(const BadCheckpointCase& c, std::ostream* os) {
  *os << testing::PrintToString(c.file);
}

class BadCheckpoint : public testing::TestWithParam<BadCheckpointCase> {};

TEST_P(BadCheckpoint, LoadFailsWithTheTypedError) {
  const std::string path = checkpoint_fixture(GetParam().file);
  ASSERT_TRUE(file_exists(path)) << "missing fixture " << path;
  try {
    load_checkpoint(path);
    FAIL() << GetParam().file << " loaded";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().message), std::string::npos)
        << GetParam().file << " failed elsewhere: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BadCheckpoint,
    testing::Values(BadCheckpointCase{"empty.ckpt", "empty checkpoint"},
                    BadCheckpointCase{"bad_magic.ckpt", "bad magic"},
                    BadCheckpointCase{"truncated.ckpt", "missing 'end'"},
                    BadCheckpointCase{"bad_rng.ckpt", "bad rng line"},
                    BadCheckpointCase{"bad_cost.ckpt", "bad cost value 'zzz'"},
                    BadCheckpointCase{"nonfinite_cost.ckpt", "non-finite cost value"},
                    BadCheckpointCase{"oversized_count.ckpt", "stall value 4294967296 out of range"},
                    BadCheckpointCase{"oversized_kernels.ckpt", "exceeds the 65536 cap"},
                    BadCheckpointCase{"no_population.ckpt", "empty population"},
                    BadCheckpointCase{"bad_plan.ckpt", "bad plan"}),
    [](const auto& info) {
      const std::string name = info.param.file;
      return name.substr(0, name.find('.'));
    });

TEST(Checkpoint, CheckpointErrorIsARuntimeError) {
  // Callers that catch the repo-wide RuntimeError keep working; callers that
  // want the load path specifically can catch the derived type.
  EXPECT_THROW(load_checkpoint("/nonexistent-dir/x.ckpt"), CheckpointError);
  EXPECT_THROW(load_checkpoint("/nonexistent-dir/x.ckpt"), RuntimeError);
}

TEST(Checkpoint, OversizedFileIsRefusedBeforeParsing) {
  const std::string path = testing::TempDir() + "kf_ckpt_oversized.ckpt";
  {
    std::ofstream os(path, std::ios::trunc);
    os << "hgga-checkpoint v1\n";
    const std::string filler(1 << 20, '#');  // comment lines, never parsed
    for (int i = 0; i < 65; ++i) os << filler << '\n';
  }
  try {
    load_checkpoint(path);
    FAIL() << "a >64 MiB checkpoint must be refused";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to parse"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeWithACorruptCheckpointAbortsBeforeSearching) {
  Rig rig(scale_les_rk18());
  DriverConfig cfg;
  cfg.method = SearchMethod::Hgga;
  cfg.checkpointing.file = resumable_copy("bad_plan.ckpt");
  cfg.checkpointing.resume = true;
  try {
    SearchDriver(rig.objective, cfg).run();
    ADD_FAILURE() << "a corrupt checkpoint resumed";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("bad plan"), std::string::npos) << e.what();
  }
  EXPECT_EQ(rig.objective.evaluations(), 0);
  std::remove(cfg.checkpointing.file.c_str());
}

TEST(Checkpoint, ResumeWithAnIllegalPlanAbortsBeforeSearching) {
  // The fixture parses; its individual 1 holds a group that is not
  // connected. Crossover keeps parents' groups unchecked, so the resume
  // must refuse it up front rather than breed from it.
  Rig rig(scale_les_rk18());
  DriverConfig cfg;
  cfg.method = SearchMethod::Hgga;
  cfg.checkpointing.file = resumable_copy("illegal_plan.ckpt");
  cfg.checkpointing.resume = true;
  HggaCheckpoint ckpt;
  ASSERT_NO_THROW(ckpt = load_checkpoint(cfg.checkpointing.file));
  try {
    SearchDriver(rig.objective, cfg).run();
    ADD_FAILURE() << "a checkpoint holding an illegal plan resumed";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("individual 1 is not a legal plan"), std::string::npos) << what;
    EXPECT_NE(what.find(to_string(LegalityVerdict::NotConnected)), std::string::npos) << what;
  }
  EXPECT_EQ(rig.objective.evaluations(), 0);

  // The same illegal plan as the incumbent, behind a legal population.
  std::swap(ckpt.best, ckpt.population[1]);
  save_checkpoint(cfg.checkpointing.file, ckpt);
  try {
    SearchDriver(rig.objective, cfg).run();
    ADD_FAILURE() << "a checkpoint holding an illegal best plan resumed";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("the best plan is not a legal plan"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rig.objective.evaluations(), 0);
  std::remove(cfg.checkpointing.file.c_str());
}

TEST(Checkpoint, SaveIsAtomicAndLoadable) {
  const std::string path = testing::TempDir() + "kf_ckpt_atomic.ckpt";
  HggaCheckpoint ck;
  ck.num_kernels = 3;
  ck.best = FusionPlan(3);
  ck.best_cost = 0.5;
  ck.population.push_back(FusionPlan(3));
  ck.costs = {0.5};
  save_checkpoint(path, ck);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "temp file left behind";
  const HggaCheckpoint back = load_checkpoint(path);
  EXPECT_EQ(back.num_kernels, 3);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeReproducesTheUninterruptedRunBitForBit) {
  Rig rig(scale_les_rk18());
  HggaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 20;
  cfg.stall_generations = 100;
  cfg.seed = 11;

  const SearchResult full = Hgga(rig.objective, cfg).run();

  const std::string path = testing::TempDir() + "kf_ckpt_resume.ckpt";
  HggaConfig partial = cfg;
  partial.max_generations = 7;  // "killed" after 7 generations
  HggaCheckpointing save;
  save.file = path;
  save.every_generations = 3;
  Hgga(rig.objective, partial).run(nullptr, &save);

  HggaCheckpointing resume;
  resume.file = path;
  resume.resume = true;
  const SearchResult resumed = Hgga(rig.objective, cfg).run(nullptr, &resume);
  std::remove(path.c_str());

  EXPECT_EQ(resumed.best_cost_s, full.best_cost_s);  // bit-identical
  EXPECT_EQ(resumed.best, full.best);
  EXPECT_EQ(resumed.generations, full.generations);
  EXPECT_EQ(resumed.history, full.history);
}

TEST(Checkpoint, ResumeRejectsMismatchedSeedOrProgram) {
  Rig rig(scale_les_rk18());
  HggaConfig cfg;
  cfg.population = 8;
  cfg.max_generations = 2;
  cfg.seed = 11;
  const std::string path = testing::TempDir() + "kf_ckpt_mismatch.ckpt";
  HggaCheckpointing save;
  save.file = path;
  Hgga(rig.objective, cfg).run(nullptr, &save);

  HggaCheckpointing resume;
  resume.file = path;
  resume.resume = true;
  HggaConfig other_seed = cfg;
  other_seed.seed = 12;
  EXPECT_THROW(Hgga(rig.objective, other_seed).run(nullptr, &resume), RuntimeError);

  Rig other(motivating_example(GridDims{256, 128, 16}));  // different kernel count
  EXPECT_THROW(Hgga(other.objective, cfg).run(nullptr, &resume), RuntimeError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kf
