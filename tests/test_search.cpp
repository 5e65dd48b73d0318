// Unit tests for kf_search: the objective (memoisation, constraint 1.1),
// random plan generation and repair, the HGGA (legality preservation,
// improvement, determinism), exhaustive ground truth and baselines.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/motivating_example.hpp"
#include "apps/testsuite.hpp"
#include "model/proposed_model.hpp"
#include "search/exhaustive.hpp"
#include "search/greedy.hpp"
#include "search/hgga.hpp"
#include "search/population.hpp"
#include "search/random_search.hpp"

namespace kf {
namespace {

struct SearchRig {
  Program program;
  DeviceSpec device = DeviceSpec::k20x();
  TimingSimulator sim{device};
  LegalityChecker checker;
  ProposedModel model{device};
  Objective objective;

  explicit SearchRig(Program p)
      : program(std::move(p)), checker(program, device), objective(checker, model, sim) {}
};

SearchRig motivating_rig() {
  return SearchRig(motivating_example(GridDims{256, 128, 16}));
}

SearchRig suite_rig(int kernels, std::uint64_t seed = 3) {
  TestSuiteConfig cfg;
  cfg.kernels = kernels;
  cfg.arrays = kernels * 2;
  cfg.seed = seed;
  cfg.grid = GridDims{256, 128, 16};
  return SearchRig(make_testsuite_program(cfg));
}

// ---------- Objective ----------

TEST(Objective, SingletonCostEqualsMeasuredTime) {
  SearchRig rig = motivating_rig();
  for (KernelId k = 0; k < rig.program.num_kernels(); ++k) {
    const std::vector<KernelId> solo{k};
    EXPECT_DOUBLE_EQ(rig.objective.group_cost(solo).cost_s,
                     rig.sim.run_original(rig.program, k).time_s);
  }
}

TEST(Objective, BaselineIsIdentityPlanCost) {
  SearchRig rig = motivating_rig();
  const FusionPlan identity(rig.program.num_kernels());
  EXPECT_NEAR(rig.objective.plan_cost(identity), rig.objective.baseline_cost(), 1e-15);
}

TEST(Objective, CacheAvoidsRecomputation) {
  SearchRig rig = motivating_rig();
  rig.objective.reset_counters();
  const std::vector<KernelId> group{rig.program.find_kernel("Kern_C"),
                                    rig.program.find_kernel("Kern_E")};
  (void)rig.objective.group_cost(group);
  (void)rig.objective.group_cost(group);
  (void)rig.objective.group_cost(group);
  EXPECT_EQ(rig.objective.evaluations(), 3);
  EXPECT_EQ(rig.objective.model_evaluations(), 1);
}

TEST(Objective, UnprofitableGroupPenalised) {
  // Kernel Y = {C, D, E} under the *literal* paper model projects worse
  // than the original sum (the paper's motivating discovery): the
  // objective must penalise it past the original sum.
  const Program program = motivating_example(GridDims{256, 128, 16});
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(program, device);
  const ProposedModel literal(device,
                              {.formulation = ProposedModel::Formulation::PaperLiteral});
  const Objective objective(checker, literal, sim);
  const std::vector<KernelId> y{program.find_kernel("Kern_C"),
                                program.find_kernel("Kern_D"),
                                program.find_kernel("Kern_E")};
  const auto cost = objective.group_cost(y);
  double original_sum = 0;
  for (KernelId k : y) original_sum += objective.original_time(k);
  EXPECT_FALSE(cost.profitable);
  EXPECT_GT(cost.cost_s, original_sum);
}

// ---------- population helpers ----------

TEST(Population, RandomPlansAreLegal) {
  SearchRig rig = suite_rig(20);
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    const FusionPlan plan = random_legal_plan(rig.checker, rng, 0.9);
    EXPECT_TRUE(rig.checker.plan_is_legal(plan)) << plan.to_string();
    EXPECT_EQ(plan.num_kernels(), rig.program.num_kernels());
  }
}

TEST(Population, AggressivenessControlsFusionAmount) {
  SearchRig rig = suite_rig(30);
  Rng rng1(11);
  Rng rng2(11);
  int fused_low = 0;
  int fused_high = 0;
  for (int i = 0; i < 10; ++i) {
    fused_low += random_legal_plan(rig.checker, rng1, 0.05).fused_kernel_count();
    fused_high += random_legal_plan(rig.checker, rng2, 0.95).fused_kernel_count();
  }
  EXPECT_LT(fused_low, fused_high);
}

TEST(Population, RepairSplitsIllegalGroups) {
  SearchRig rig = motivating_rig();
  // Force an illegal plan: disconnected {A, C}.
  FusionPlan bad = FusionPlan::from_groups(
      rig.program.num_kernels(),
      {{rig.program.find_kernel("Kern_A"), rig.program.find_kernel("Kern_C")},
       {rig.program.find_kernel("Kern_B")},
       {rig.program.find_kernel("Kern_D")},
       {rig.program.find_kernel("Kern_E")}});
  EXPECT_FALSE(rig.checker.plan_is_legal(bad));
  const int repaired = repair_plan(rig.checker, bad);
  EXPECT_GE(repaired, 1);
  EXPECT_TRUE(rig.checker.plan_is_legal(bad));
}

// ---------- HGGA ----------

HggaConfig small_config(std::uint64_t seed = 1) {
  HggaConfig cfg;
  cfg.population = 24;
  cfg.max_generations = 60;
  cfg.stall_generations = 25;
  cfg.seed = seed;
  return cfg;
}

TEST(Hgga, ImprovesOverBaseline) {
  SearchRig rig = suite_rig(20);
  Hgga search(rig.objective, small_config());
  const SearchResult result = search.run();
  EXPECT_LT(result.best_cost_s, result.baseline_cost_s);
  EXPECT_GT(result.projected_speedup(), 1.0);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_GT(result.generations, 0);
  EXPECT_GT(result.evaluations, 0);
}

TEST(Hgga, DeterministicForSeed) {
  SearchRig rig1 = suite_rig(15);
  SearchRig rig2 = suite_rig(15);
  const SearchResult a = Hgga(rig1.objective, small_config(5)).run();
  const SearchResult b = Hgga(rig2.objective, small_config(5)).run();
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_cost_s, b.best_cost_s);
}

TEST(Hgga, HistoryMonotonicallyNonIncreasing) {
  SearchRig rig = suite_rig(20);
  const SearchResult result = Hgga(rig.objective, small_config()).run();
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_LE(result.history[g], result.history[g - 1] + 1e-15);
  }
}

TEST(Hgga, StopsOnStall) {
  SearchRig rig = motivating_rig();  // tiny problem: converges instantly
  HggaConfig cfg = small_config();
  cfg.max_generations = 500;
  cfg.stall_generations = 10;
  const SearchResult result = Hgga(rig.objective, cfg).run();
  EXPECT_LT(result.generations, 500);
}

TEST(Hgga, AllPlansLegalThroughoutSearch) {
  // Indirect but strong: the final best of several seeds is legal, and
  // cost never goes below the exhaustive optimum (checked elsewhere).
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SearchRig rig = suite_rig(12, seed);
    const SearchResult result = Hgga(rig.objective, small_config(seed)).run();
    EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  }
}


TEST(Hgga, ConvergenceTraceRecorded) {
  SearchRig rig = suite_rig(15);
  const SearchResult result = Hgga(rig.objective, small_config()).run();
  ASSERT_EQ(result.trace.size(), static_cast<std::size_t>(result.generations));
  for (std::size_t g = 1; g < result.trace.size(); ++g) {
    EXPECT_LE(result.trace[g].best_cost_s, result.trace[g - 1].best_cost_s + 1e-15);
    EXPECT_GE(result.trace[g].mean_cost_s, result.trace[g].best_cost_s - 1e-15);
    EXPECT_GE(result.trace[g].distinct_plans, 1);
    EXPECT_GT(result.trace[g].mean_groups, 0.0);
  }
}

TEST(Hgga, LocalPolishConfigurable) {
  // Polish always runs on the final best; history.back() is the best cost
  // the generations reached before it, and polish never raises it.
  SearchRig rig = suite_rig(15, 77);
  const SearchResult result = Hgga(rig.objective, small_config(3)).run();
  ASSERT_FALSE(result.history.empty());
  EXPECT_LE(result.best_cost_s, result.history.back());
}

// ---------- exhaustive ----------

TEST(Exhaustive, FindsOptimumOnMotivatingExample) {
  SearchRig rig = motivating_rig();
  const SearchResult result = exhaustive_search(rig.objective);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_LE(result.best_cost_s, result.baseline_cost_s);
  EXPECT_GT(result.evaluations, 0);
}

TEST(Exhaustive, RefusesLargeProblems) {
  SearchRig rig = suite_rig(20);
  EXPECT_THROW(exhaustive_search(rig.objective), PreconditionError);
}

TEST(Exhaustive, HggaMatchesExhaustiveOnSmallSuite) {
  // Fig. 5a's claim: the heuristic finds the optimum on small benchmarks.
  int hits = 0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    SearchRig rig_ex = suite_rig(9, 100 + t);
    const SearchResult truth = exhaustive_search(rig_ex.objective);
    SearchRig rig_ga = suite_rig(9, 100 + t);
    HggaConfig cfg = small_config(77 + t);
    cfg.population = 40;
    cfg.max_generations = 120;
    const SearchResult found = Hgga(rig_ga.objective, cfg).run();
    if (std::abs(found.best_cost_s - truth.best_cost_s) < 1e-12) ++hits;
    EXPECT_GE(found.best_cost_s, truth.best_cost_s - 1e-12);
  }
  EXPECT_GE(hits, 2) << "HGGA should find the optimum on most small benchmarks";
}

// ---------- baselines ----------

TEST(Greedy, LegalAndAtLeastBaseline) {
  SearchRig rig = suite_rig(20);
  const SearchResult result = greedy_search(rig.objective);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_LE(result.best_cost_s, result.baseline_cost_s + 1e-15);
}

TEST(Greedy, ResultsCountOnlyTheirOwnRun) {
  // A server keeps one objective per key across requests and retries, so a
  // result must not count the work of searches before it.
  SearchRig rig = suite_rig(20);
  const SearchResult first = greedy_search(rig.objective);
  const SearchResult second = greedy_search(rig.objective);
  EXPECT_GT(first.model_evaluations, 0);
  EXPECT_EQ(second.evaluations, first.evaluations);
  EXPECT_EQ(second.model_evaluations, 0);  // every group is cached by now
  EXPECT_EQ(second.best.to_string(), first.best.to_string());
}

TEST(RandomSearch, FindsSomethingLegal) {
  SearchRig rig = suite_rig(15);
  RandomSearchConfig cfg;
  cfg.samples = 200;
  const SearchResult result = random_search(rig.objective, cfg);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
  EXPECT_LE(result.best_cost_s, result.baseline_cost_s + 1e-15);
}

TEST(SearchComparison, HggaAtLeastAsGoodAsRandom) {
  SearchRig rig_ga = suite_rig(20, 9);
  SearchRig rig_rnd = suite_rig(20, 9);
  const SearchResult ga = Hgga(rig_ga.objective, small_config(13)).run();
  RandomSearchConfig rcfg;
  rcfg.samples = 300;
  rcfg.seed = 13;
  const SearchResult rnd = random_search(rig_rnd.objective, rcfg);
  EXPECT_LE(ga.best_cost_s, rnd.best_cost_s + 1e-12);
}

}  // namespace
}  // namespace kf
