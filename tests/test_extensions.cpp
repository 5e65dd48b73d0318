// Tests for the extension features beyond the paper's core pipeline:
// simulated annealing and the read-only cache offload.
#include <gtest/gtest.h>

#include "apps/motivating_example.hpp"
#include "apps/testsuite.hpp"
#include "graph/dependency_graph.hpp"
#include "model/proposed_model.hpp"
#include "search/annealing.hpp"
#include "search/greedy.hpp"
#include "search/hgga.hpp"
#include "util/error.hpp"

namespace kf {
namespace {

struct Rig {
  Program program;
  DeviceSpec device;
  TimingSimulator sim;
  LegalityChecker checker;
  ProposedModel model;
  Objective objective;

  explicit Rig(Program p, DeviceSpec dev = DeviceSpec::k20x(),
               FusionCostParams params = FusionCostParams())
      : program(std::move(p)),
        device(std::move(dev)),
        sim(device),
        checker(program, device, params),
        model(device),
        objective(checker, model, sim) {}
};

// ---------- simulated annealing ----------

TEST(Annealing, ImprovesOverBaselineAndStaysLegal) {
  TestSuiteConfig cfg;
  cfg.kernels = 18;
  cfg.arrays = 36;
  cfg.seed = 41;
  cfg.grid = GridDims{256, 128, 16};
  Rig rig(make_testsuite_program(cfg));
  AnnealingConfig acfg;
  acfg.iterations = 4000;
  acfg.seed = 7;
  const SearchResult result = annealing_search(rig.objective, acfg);
  EXPECT_LT(result.best_cost_s, result.baseline_cost_s);
  EXPECT_TRUE(rig.checker.plan_is_legal(result.best));
}

TEST(Annealing, DeterministicForSeed) {
  TestSuiteConfig cfg;
  cfg.kernels = 14;
  cfg.arrays = 28;
  cfg.seed = 43;
  cfg.grid = GridDims{256, 128, 16};
  Rig rig1(make_testsuite_program(cfg));
  Rig rig2(make_testsuite_program(cfg));
  AnnealingConfig acfg;
  acfg.iterations = 2000;
  acfg.seed = 11;
  const SearchResult a = annealing_search(rig1.objective, acfg);
  const SearchResult b = annealing_search(rig2.objective, acfg);
  EXPECT_EQ(a.best, b.best);
}

TEST(Annealing, BeatsOrMatchesGreedyOnAverage) {
  double annealing_total = 0;
  double greedy_total = 0;
  for (std::uint64_t seed : {51ULL, 52ULL, 53ULL}) {
    TestSuiteConfig cfg;
    cfg.kernels = 16;
    cfg.arrays = 32;
    cfg.seed = seed;
    cfg.grid = GridDims{256, 128, 16};
    Rig rig_a(make_testsuite_program(cfg));
    Rig rig_g(make_testsuite_program(cfg));
    AnnealingConfig acfg;
    acfg.iterations = 6000;
    acfg.seed = seed;
    annealing_total += annealing_search(rig_a.objective, acfg).best_cost_s;
    greedy_total += greedy_search(rig_g.objective).best_cost_s;
  }
  EXPECT_LE(annealing_total, greedy_total * 1.05);
}

TEST(Annealing, RejectsBadConfig) {
  Rig rig(motivating_example(GridDims{32, 16, 4}));
  AnnealingConfig bad;
  bad.iterations = 0;
  EXPECT_THROW(annealing_search(rig.objective, bad), PreconditionError);
}

// ---------- read-only cache ----------

TEST(ReadOnlyCache, MarkReadonlyArraysFlagsInputs) {
  Program p = motivating_example(GridDims{32, 16, 4});
  const int flagged = mark_readonly_arrays(p);
  EXPECT_GE(flagged, 4);  // B, C, T, Q, V are never written
  EXPECT_TRUE(p.array(p.find_array("Q")).readonly_cache_eligible);
  EXPECT_FALSE(p.array(p.find_array("A")).readonly_cache_eligible);
  // Idempotent.
  EXPECT_EQ(mark_readonly_arrays(p), 0);
}

TEST(ReadOnlyCache, OffloadFreesSmem) {
  Program p = motivating_example(GridDims{64, 32, 8});
  mark_readonly_arrays(p);
  const std::vector<KernelId> y{p.find_kernel("Kern_C"), p.find_kernel("Kern_D"),
                                p.find_kernel("Kern_E")};

  FusionCostParams off;
  off.rocache_bytes = 0;
  const LaunchDescriptor d_off = FusedKernelBuilder(p, off).build(y);
  FusionCostParams on;
  on.rocache_bytes = DeviceSpec::k20x().readonly_cache_per_smx;
  const LaunchDescriptor d_on = FusedKernelBuilder(p, on).build(y);

  EXPECT_EQ(d_off.rocache_arrays.size(), 0u);
  EXPECT_EQ(d_on.rocache_arrays.size(), 3u);  // T, Q, V all read-only
  EXPECT_LT(d_on.smem_per_block_bytes, d_off.smem_per_block_bytes);
  // Traffic is identical: the reuse merely moves to a different cache.
  const double t_off = compute_traffic(p, d_off).gmem_total();
  const double t_on = compute_traffic(p, d_on).gmem_total();
  EXPECT_NEAR(t_on, t_off, 1e-6);
}

TEST(ReadOnlyCache, EnablesFusionUnderTightSmem) {
  Program p = motivating_example(GridDims{64, 32, 8});
  mark_readonly_arrays(p);
  const DeviceSpec tiny = DeviceSpec::k20x().with_smem_capacity(2048);
  const std::vector<KernelId> y{p.find_kernel("Kern_C"), p.find_kernel("Kern_D"),
                                p.find_kernel("Kern_E")};

  FusionCostParams off;
  off.rocache_bytes = 0;
  const LegalityChecker checker_off(p, tiny, off);
  EXPECT_EQ(checker_off.check_group(y), LegalityVerdict::SmemOverflow);

  const LegalityChecker checker_on(p, tiny);  // device capacity filled in
  EXPECT_EQ(checker_on.check_group(y), LegalityVerdict::Ok);
}

TEST(ReadOnlyCache, BudgetRespected) {
  Program p = motivating_example(GridDims{64, 32, 8});
  mark_readonly_arrays(p);
  const std::vector<KernelId> y{p.find_kernel("Kern_C"), p.find_kernel("Kern_D"),
                                p.find_kernel("Kern_E")};
  FusionCostParams tiny_budget;
  tiny_budget.rocache_bytes = 1500;  // fits roughly one tile
  const LaunchDescriptor d = FusedKernelBuilder(p, tiny_budget).build(y);
  EXPECT_LE(d.rocache_arrays.size(), 1u);
  EXPECT_GE(d.pivot_arrays.size(), 2u);
}

TEST(ReadOnlyCache, ProducedArraysNeverOffloaded) {
  Program p = motivating_example(GridDims{64, 32, 8});
  mark_readonly_arrays(p);
  // Force-flag A (written by Kern_A) — the builder must still refuse it.
  p.array(p.find_array("A")).readonly_cache_eligible = true;
  const std::vector<KernelId> x{p.find_kernel("Kern_A"), p.find_kernel("Kern_B")};
  const LaunchDescriptor d = FusedKernelBuilder(p).build(x);
  EXPECT_FALSE(d.is_rocache(p.find_array("A")));
  EXPECT_TRUE(d.is_pivot(p.find_array("A")));
}

}  // namespace
}  // namespace kf
