// Property-based tests: invariants swept over seeds and configurations
// with parameterized gtest suites.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "apps/cloverleaf.hpp"
#include "apps/homme.hpp"
#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "apps/testsuite.hpp"
#include "graph/dag.hpp"
#include "graph/dependency_graph.hpp"
#include "gpu/bank_conflicts.hpp"
#include "ir/program_io.hpp"
#include "graph/sharing.hpp"
#include "fusion/legality.hpp"
#include "fusion/transformer.hpp"
#include "gpu/traffic_model.hpp"
#include "graph/array_expansion.hpp"
#include "graph/execution_order.hpp"
#include "model/proposed_model.hpp"
#include "model/roofline_model.hpp"
#include "search/hgga.hpp"
#include "search/population.hpp"
#include "stencil/equivalence.hpp"
#include "util/string_util.hpp"

namespace kf {
namespace {

// ============================================================ seeds sweep

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Program make_program(int kernels = 16, bool with_bodies = false) const {
    TestSuiteConfig cfg;
    cfg.kernels = kernels;
    cfg.arrays = 2 * kernels;
    cfg.seed = GetParam();
    cfg.with_bodies = with_bodies;
    cfg.grid = with_bodies ? GridDims{32, 16, 4} : GridDims{256, 128, 16};
    return make_testsuite_program(cfg);
  }
};

TEST_P(SeedSweep, GeneratedProgramsValidate) {
  const Program p = make_program();
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.num_kernels(), 16);
}

TEST_P(SeedSweep, RandomPlansAreFullyLegal) {
  const Program p = make_program();
  const ExpansionResult expansion = expand_arrays(p);
  const LegalityChecker checker(expansion.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 31 + 7);
  for (double aggressiveness : {0.2, 0.6, 0.95}) {
    const FusionPlan plan = random_legal_plan(checker, rng, aggressiveness);
    EXPECT_TRUE(checker.plan_is_legal(plan)) << plan.to_string();
    EXPECT_TRUE(checker.plan_is_schedulable(plan));
    // Partition invariant: every kernel in exactly one group.
    int total = 0;
    for (int g = 0; g < plan.num_groups(); ++g) {
      total += static_cast<int>(plan.group(g).size());
    }
    EXPECT_EQ(total, plan.num_kernels());
  }
}

TEST_P(SeedSweep, RepairAlwaysYieldsALegalPlan) {
  // repair_plan's postcondition, which is why no edit re-checks a repaired
  // plan: from any partition (illegal groups, or legal groups whose
  // quotient has a cycle) it returns a plan that plan_is_legal accepts.
  const Program p = make_program(20);
  const ExpansionResult expansion = expand_arrays(p);
  const LegalityChecker checker(expansion.program, DeviceSpec::k20x());
  const int n = checker.program().num_kernels();
  Rng rng(GetParam() * 131 + 5);
  int illegal_groups = 0;
  int cyclic_plans = 0;
  for (int trial = 0; trial < 20; ++trial) {
    // Every kernel joins one of a few random groups...
    std::vector<std::vector<KernelId>> buckets(2 + rng.next_below(6));
    for (KernelId k = 0; k < n; ++k) buckets[rng.next_below(buckets.size())].push_back(k);
    std::erase_if(buckets, [](const std::vector<KernelId>& g) { return g.empty(); });
    FusionPlan scattered = FusionPlan::from_groups(n, buckets);
    // ...or legal groups merge with no schedulability check.
    FusionPlan merged = random_legal_plan(checker, rng, 0.5);
    for (int t = 0; t < 3 * n && merged.num_groups() >= 2; ++t) {
      const auto groups = static_cast<std::uint64_t>(merged.num_groups());
      const int a = static_cast<int>(rng.next_below(groups));
      int b = static_cast<int>(rng.next_below(groups - 1));
      if (b >= a) ++b;
      std::vector<KernelId> join(merged.group(a).begin(), merged.group(a).end());
      join.insert(join.end(), merged.group(b).begin(), merged.group(b).end());
      if (checker.group_is_legal(join)) merged.merge_groups(a, b);
    }
    for (FusionPlan* plan : {&scattered, &merged}) {
      for (int g = 0; g < plan->num_groups(); ++g) {
        if (plan->group(g).size() >= 2 && !checker.group_is_legal(plan->group(g))) {
          ++illegal_groups;
        }
      }
      if (!checker.cyclic_groups(*plan).empty()) ++cyclic_plans;
      repair_plan(checker, *plan);
      EXPECT_TRUE(checker.plan_is_legal(*plan)) << plan->to_string();
    }
  }
  // Both of repair's passes ran.
  EXPECT_GT(illegal_groups, 0);
  EXPECT_GT(cyclic_plans, 0);
}

TEST_P(SeedSweep, ExpansionRemovesAllWarWaw) {
  const Program p = make_program();
  const ExpansionResult expansion = expand_arrays(p);
  const DependencyGraph deps = DependencyGraph::build(expansion.program);
  for (const DependencyEdge& e : deps.edges()) {
    // RAW always persists; WAR/WAW may only survive through accumulating
    // (ReadWrite) accesses, which expansion must not split.
    if (e.kind != DepKind::RAW) {
      const KernelInfo& to = expansion.program.kernel(e.to);
      const ArrayAccess* acc = to.find_access(e.array);
      ASSERT_NE(acc, nullptr);
      EXPECT_EQ(acc->mode, AccessMode::ReadWrite)
          << to_string(e.kind) << " edge on pure-write access survived expansion";
    }
  }
}

TEST_P(SeedSweep, FusedTrafficNeverExceedsOriginalSum) {
  const Program p = make_program();
  const ExpansionResult ex = expand_arrays(p);
  const LegalityChecker checker(ex.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 17 + 3);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.9);
  for (int g = 0; g < plan.num_groups(); ++g) {
    if (plan.group(g).size() < 2) continue;
    const LaunchDescriptor d = checker.builder().build(plan.group(g));
    double original = 0;
    for (KernelId k : plan.group(g)) {
      original += compute_traffic(ex.program, descriptor_for_original(ex.program, k))
                      .gmem_total();
    }
    EXPECT_LE(compute_traffic(ex.program, d).gmem_total(), original * (1 + 1e-9))
        << d.name;
  }
}

TEST_P(SeedSweep, RooflineLowerBoundsProposed) {
  const Program p = make_program();
  const ExpansionResult ex = expand_arrays(p);
  const DeviceSpec device = DeviceSpec::k20x();
  const LegalityChecker checker(ex.program, device);
  const RooflineModel roofline(device);
  const ProposedModel proposed(device);
  Rng rng(GetParam() * 13 + 5);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.8);
  for (int g = 0; g < plan.num_groups(); ++g) {
    if (plan.group(g).size() < 2) continue;
    const LaunchDescriptor d = checker.builder().build(plan.group(g));
    const Projection pr = roofline.project(ex.program, d);
    const Projection pp = proposed.project(ex.program, d);
    if (pp.feasible) {
      EXPECT_LE(pr.time_s, pp.time_s * (1 + 1e-9)) << d.name;
    }
  }
}

TEST_P(SeedSweep, TransformedProgramsAreValidAndComplete) {
  const Program p = make_program();
  const ExpansionResult ex = expand_arrays(p);
  const LegalityChecker checker(ex.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 7 + 1);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.85);
  const FusedProgram fused = apply_fusion(checker, plan);
  EXPECT_NO_THROW(fused.program.validate());
  EXPECT_EQ(fused.num_new_kernels(), plan.num_groups());
  // All original kernels covered exactly once.
  std::vector<int> seen(static_cast<std::size_t>(ex.program.num_kernels()), 0);
  for (const auto& members : fused.members) {
    for (KernelId k : members) ++seen[static_cast<std::size_t>(k)];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST_P(SeedSweep, FunctionalEquivalenceOfRandomFusions) {
  const Program p = make_program(8, /*with_bodies=*/true);
  const ExpansionResult ex = expand_arrays(p);
  const LegalityChecker checker(ex.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 19 + 11);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.9);
  const FusedProgram fused = apply_fusion(checker, plan);
  const EquivalenceReport report = verify_fusion(p, fused, &ex);
  EXPECT_TRUE(report.equivalent)
      << "seed " << GetParam() << " plan " << plan.to_string() << " diff "
      << report.max_abs_diff;
}

TEST_P(SeedSweep, GmemOpsDropUnderFusion) {
  const Program p = make_program(8, /*with_bodies=*/true);
  const ExpansionResult ex = expand_arrays(p);
  const LegalityChecker checker(ex.program, DeviceSpec::k20x());
  Rng rng(GetParam() * 23 + 29);
  const FusionPlan plan = random_legal_plan(checker, rng, 0.9);
  if (plan.fused_group_count() == 0) GTEST_SKIP() << "no fusion drawn";
  const FusedProgram fused = apply_fusion(checker, plan);
  GridSet before(ex.program);
  const ExecCounters b = BlockExecutor(ex.program).run(before);
  GridSet after(fused.program);
  const ExecCounters a = BlockExecutor(fused.program).run(after);
  EXPECT_LE(a.gmem_ops(), b.gmem_ops() * (1 + 1e-9));
  EXPECT_DOUBLE_EQ(a.gmem_stores, b.gmem_stores);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u,
                                           89u));

// ==================================================== attribute grid sweep

struct SuiteAttr {
  int kernels;
  int sharing;
  int load;
};

class AttributeSweep : public ::testing::TestWithParam<SuiteAttr> {};

TEST_P(AttributeSweep, GeneratorHonoursAttributes) {
  const SuiteAttr attr = GetParam();
  TestSuiteConfig cfg;
  cfg.kernels = attr.kernels;
  cfg.arrays = 2 * attr.kernels;
  cfg.sharing_set_size = attr.sharing;
  cfg.thread_load = attr.load;
  cfg.grid = GridDims{256, 128, 16};
  const Program p = make_testsuite_program(cfg);
  EXPECT_EQ(p.num_kernels(), attr.kernels);
  EXPECT_EQ(p.num_arrays(), 2 * attr.kernels);
  EXPECT_NO_THROW(p.validate());

  // Thread load of non-center reads lands within +-1 of the attribute.
  for (const KernelInfo& k : p.kernels()) {
    for (const ArrayAccess& acc : k.accesses) {
      if (acc.is_read() && acc.pattern.thread_load() > 1) {
        EXPECT_GE(acc.pattern.thread_load(), std::max(2, attr.load - 1));
        EXPECT_LE(acc.pattern.thread_load(), attr.load + 1);
      }
    }
  }
}

TEST_P(AttributeSweep, SearchAlwaysLegalAndNeverWorseThanBaseline) {
  const SuiteAttr attr = GetParam();
  TestSuiteConfig cfg;
  cfg.kernels = attr.kernels;
  cfg.arrays = 2 * attr.kernels;
  cfg.sharing_set_size = attr.sharing;
  cfg.thread_load = attr.load;
  cfg.grid = GridDims{256, 128, 16};
  const Program p = make_testsuite_program(cfg);
  const ExpansionResult ex = expand_arrays(p);
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  const LegalityChecker checker(ex.program, device);
  const ProposedModel model(device);
  const Objective objective(checker, model, sim);
  HggaConfig hcfg;
  hcfg.population = 20;
  hcfg.max_generations = 40;
  hcfg.stall_generations = 15;
  hcfg.seed = static_cast<std::uint64_t>(attr.kernels * 100 + attr.load);
  const SearchResult result = Hgga(objective, hcfg).run();
  EXPECT_TRUE(checker.plan_is_legal(result.best));
  EXPECT_LE(result.best_cost_s, result.baseline_cost_s * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    TableV, AttributeSweep,
    ::testing::Values(SuiteAttr{10, 2, 4}, SuiteAttr{10, 4, 8}, SuiteAttr{10, 8, 12},
                      SuiteAttr{20, 2, 12}, SuiteAttr{20, 6, 4}, SuiteAttr{30, 4, 8},
                      SuiteAttr{30, 8, 4}),
    [](const ::testing::TestParamInfo<SuiteAttr>& info) {
      return "k" + std::to_string(info.param.kernels) + "_s" +
             std::to_string(info.param.sharing) + "_t" +
             std::to_string(info.param.load);
    });

// ======================================================= occupancy sweep

struct OccCase {
  int threads;
  int regs;
  long smem;
};

class OccupancySweep : public ::testing::TestWithParam<OccCase> {};

TEST_P(OccupancySweep, MatchesBruteForceReference) {
  const OccCase c = GetParam();
  const DeviceSpec d = DeviceSpec::k20x();
  const Occupancy occ = compute_occupancy(d, c.threads, c.regs, c.smem);
  if (c.threads > d.max_threads_per_block || c.regs > d.max_regs_per_thread ||
      c.smem > d.smem_per_smx) {
    EXPECT_EQ(occ.limiter, OccupancyLimiter::Infeasible);
    return;
  }
  // Brute force: the largest b such that all resources fit.
  int expected = 0;
  for (int b = d.max_blocks_per_smx; b >= 1; --b) {
    const long regs_rounded = (c.regs + 7) / 8 * 8;
    const bool fits = b * c.threads <= d.max_threads_per_smx &&
                      b * regs_rounded * c.threads <= d.regs_per_smx &&
                      b * c.smem <= d.smem_per_smx;
    if (fits) {
      expected = b;
      break;
    }
  }
  EXPECT_EQ(occ.blocks_per_smx, expected);
  EXPECT_EQ(occ.feasible(), expected > 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OccupancySweep,
    ::testing::Values(OccCase{64, 16, 0}, OccCase{128, 32, 2048},
                      OccCase{128, 64, 16 * 1024}, OccCase{256, 128, 0},
                      OccCase{256, 255, 24 * 1024}, OccCase{512, 48, 12 * 1024},
                      OccCase{1024, 32, 47 * 1024}, OccCase{1024, 255, 0},
                      OccCase{128, 300, 0}, OccCase{128, 40, 64 * 1024}),
    [](const ::testing::TestParamInfo<OccCase>& info) {
      return "t" + std::to_string(info.param.threads) + "_r" +
             std::to_string(info.param.regs) + "_s" +
             std::to_string(info.param.smem / 1024) + "k";
    });

// ====================================================== pattern sweep

class PatternSweep : public ::testing::TestWithParam<int> {};

TEST_P(PatternSweep, ThreadLoadConstructionExact) {
  const int load = GetParam();
  const StencilPattern p = StencilPattern::with_thread_load(load);
  EXPECT_EQ(p.thread_load(), load);
  EXPECT_EQ(p.size(), load);  // all offsets horizontal
  // Radius grows like ceil((sqrt(load) - 1) / 2).
  const int expected_radius =
      static_cast<int>(std::ceil((std::sqrt(static_cast<double>(load)) - 1.0) / 2.0));
  EXPECT_EQ(p.horizontal_radius(), expected_radius);
}

TEST_P(PatternSweep, MergeWithSelfIsIdentity) {
  const StencilPattern p = StencilPattern::with_thread_load(GetParam());
  EXPECT_EQ(p.merged_with(p), p);
}

INSTANTIATE_TEST_SUITE_P(Loads, PatternSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 25));

// ============================== projection vs a recounting reference

// The reference recounts every stencil fact from StencilPattern::offsets()
// and tests staging with LaunchDescriptor::is_staged, so it shares neither
// the facts a pattern derives once nor compute_traffic's staged flags.
int recount_thread_load(const StencilPattern& pattern) {
  std::set<std::pair<int, int>> columns;
  for (const Offset& o : pattern.offsets()) columns.insert({o.dx, o.dy});
  return static_cast<int>(columns.size());
}

int recount_radius(const StencilPattern& pattern) {
  int r = 0;
  for (const Offset& o : pattern.offsets()) r = std::max({r, std::abs(o.dx), std::abs(o.dy)});
  return r;
}

void expect_recounted(const StencilPattern& pattern) {
  EXPECT_EQ(pattern.thread_load(), recount_thread_load(pattern)) << pattern.to_string();
  EXPECT_EQ(pattern.horizontal_radius(), recount_radius(pattern)) << pattern.to_string();
}

TEST(StencilFacts, EveryFactoryAndRandomOffsetSetsMatchARecount) {
  expect_recounted(StencilPattern());
  expect_recounted(StencilPattern::point());
  for (int r = 0; r <= 4; ++r) {
    expect_recounted(StencilPattern::cross2d(r));
    expect_recounted(StencilPattern::box2d(r));
    expect_recounted(StencilPattern::column(r));
  }
  for (int points = 1; points <= 4; ++points) {
    expect_recounted(StencilPattern::backward2d(points));
  }
  for (int load = 1; load <= 40; ++load) {
    expect_recounted(StencilPattern::with_thread_load(load));
  }
  // Random offsets, repeats and vertical neighbours of one column included.
  Rng rng(0x57e9c11);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Offset> offsets;
    const int n = static_cast<int>(rng.next_below(12));
    for (int i = 0; i < n; ++i) {
      offsets.push_back({static_cast<int>(rng.next_below(7)) - 3,
                         static_cast<int>(rng.next_below(7)) - 3,
                         static_cast<int>(rng.next_below(3)) - 1});
    }
    const StencilPattern pattern(offsets);
    expect_recounted(pattern);
    expect_recounted(pattern.merged_with(StencilPattern::cross2d(1)));
  }
}

TrafficBreakdown reference_traffic(const Program& program, const LaunchDescriptor& launch) {
  TrafficBreakdown t;
  const double sites = static_cast<double>(program.grid().total_sites());
  const double pivot_halo = halo_area_factor(program.launch(), launch.halo_radius);
  std::set<ArrayId> resident;
  for (KernelId k : launch.members) {
    const KernelInfo& kernel = program.kernel(k);
    for (const ArrayAccess& acc : kernel.accesses) {
      const double elem = program.array(acc.array).elem_bytes;
      if (acc.is_read()) {
        const double use_bytes = sites * elem * recount_thread_load(acc.pattern);
        if (launch.is_staged(acc.array)) {
          if (resident.count(acc.array) == 0 && !acc.reads_own_product) {
            const double tile_bytes = sites * elem * pivot_halo;
            t.load_bytes += tile_bytes;
            t.halo_bytes += tile_bytes - sites * elem;
          }
          t.smem_bytes += use_bytes;
          resident.insert(acc.array);
        } else if (recount_thread_load(acc.pattern) > 1 && kernel.smem_in_original) {
          const double own_halo =
              halo_area_factor(program.launch(), recount_radius(acc.pattern));
          const double tile_bytes = sites * elem * own_halo;
          t.load_bytes += tile_bytes;
          t.halo_bytes += tile_bytes - sites * elem;
          t.smem_bytes += use_bytes;
        } else {
          t.load_bytes += use_bytes;
        }
      }
      if (acc.is_write()) {
        t.store_bytes += sites * elem;
        if (launch.is_staged(acc.array)) {
          t.smem_bytes += sites * elem;
          resident.insert(acc.array);
        }
      }
    }
  }
  return t;
}

/// ProposedModel::project_impl's formulas (Eqs. 2-10 and the calibrated
/// bound), over the recounted thread loads and the reference traffic.
Projection reference_projection(const DeviceSpec& device, bool literal,
                                const Program& program, const LaunchDescriptor& launch) {
  Projection p;
  const double sites = static_cast<double>(program.grid().total_sites());
  const int elem = dominant_elem_bytes(program);
  const int thr = program.launch().threads_per_block();
  const auto infeasible = [&p](std::string reason) {
    p.feasible = false;
    p.infeasible_reason = std::move(reason);
    p.time_s = std::numeric_limits<double>::infinity();
    return p;
  };
  if (!launch.is_fused() || launch.pivot_arrays.empty()) {
    const double bytes = reference_traffic(program, launch).gmem_total();
    p.time_s = std::max(bytes / (device.gmem_bw_gbs * 1e9),
                        launch.flops_per_site * sites / (device.peak_gflops * 1e9));
    return p;
  }
  const int c = launch.recompute_halo ? 1 : 0;
  const long hal = halo_points(program.launch(), launch.halo_radius);
  const int h_th = c ? static_cast<int>((hal + thr - 1) / thr) : 0;
  int t_b = thr;
  int max_thrld = 1;
  int r_adr = 0;
  for (KernelId k : launch.members) {
    const KernelInfo& kernel = program.kernel(k);
    if (kernel.active_threads > 0) t_b = std::min(t_b, kernel.active_threads);
    for (ArrayId a : launch.pivot_arrays) {
      const ArrayAccess* acc = kernel.find_access(a);
      if (acc != nullptr && acc->is_read()) {
        max_thrld = std::max(max_thrld, recount_thread_load(acc->pattern));
      }
    }
    r_adr = std::max(r_adr, kernel.addr_regs);
  }
  const int shr = static_cast<int>(launch.pivot_arrays.size());
  const int r_t = 1 + c * h_th + static_cast<int>(std::ceil(device.reg_reuse_factor * max_thrld)) +
                  c * h_th + r_adr + 1;
  p.regs_estimate = r_t;
  if (r_t > device.max_regs_per_thread) {
    return infeasible(strprintf("Eq.6: projected registers %d exceed R_Max %d", r_t,
                                device.max_regs_per_thread));
  }
  const int blocks_by_regs =
      static_cast<int>(device.regs_per_smx / (static_cast<long>(thr) * r_t));
  const long smem_block_raw = static_cast<long>(1 + c * h_th) * t_b * shr * elem;
  const long smem_block = smem_block_raw + smem_block_raw / device.smem_banks;
  p.smem_estimate = smem_block;
  const int blocks_by_smem = smem_block > 0 ? static_cast<int>(device.smem_per_smx / smem_block)
                                            : device.max_blocks_per_smx;
  if (blocks_by_smem == 0) {
    return infeasible(strprintf("Eq.7: SMEM demand %ld B/block exceeds %ld", smem_block,
                                device.smem_per_smx));
  }
  if (blocks_by_regs == 0) return infeasible("Eq.3: register file admits zero blocks");
  const int blocks_smx = std::min({device.max_blocks_per_smx, blocks_by_regs, blocks_by_smem,
                                   device.max_threads_per_smx / thr});
  p.blocks_per_smx = blocks_smx;
  const double total_flops = launch.flops_per_site * sites;
  if (literal) {
    const double b_sh = static_cast<double>(t_b) * blocks_smx / ((1 + c * h_th) * shr);
    const double b_eff =
        b_sh * device.num_smx / (static_cast<double>(thr) * program.blocks());
    p.p_membound_gflops = b_eff * device.gmem_bw_gbs / elem;
    p.time_s = total_flops * 1e-9 / p.p_membound_gflops;
    return p;
  }
  const int r_t_cal = std::max(r_t, launch.regs_per_thread);
  p.regs_estimate = r_t_cal;
  if (r_t_cal > device.max_regs_per_thread) {
    return infeasible(strprintf("Eq.6 (calibrated): projected registers %d exceed R_Max %d",
                                r_t_cal, device.max_regs_per_thread));
  }
  const int blocks_by_regs_cal =
      static_cast<int>(device.regs_per_smx / (static_cast<long>(thr) * r_t_cal));
  const int blocks_cal = std::min({blocks_smx, std::max(1, blocks_by_regs_cal)});
  p.blocks_per_smx = blocks_cal;
  double mlp = device.mlp_per_warp;
  if (r_t_cal > 128) {
    const double squeeze =
        static_cast<double>(r_t_cal - 128) / (device.max_regs_per_thread - 128);
    mlp = std::max(1.5, mlp * (1.0 - 0.6 * squeeze));
  }
  const int warps_per_block = (thr + device.warp_size - 1) / device.warp_size;
  const double active_warps = static_cast<double>(blocks_cal) * warps_per_block;
  const double latency_s = device.gmem_latency_cycles / (device.clock_ghz * 1e9);
  const double bw_bytes = device.gmem_bw_gbs * 1e9;
  const double inflight = static_cast<double>(device.num_smx) * active_warps * mlp * 128.0;
  const double hiding = std::min(1.0, inflight / (bw_bytes * latency_s));
  const TrafficBreakdown traffic = reference_traffic(program, launch);
  const double bytes = traffic.gmem_total();
  const double mem_time = bytes / (bw_bytes * hiding);
  const double compute_time = total_flops / (device.peak_gflops * 1e9);
  const double smem_time = traffic.smem_bytes / device.smem_bw_bytes_per_s();
  p.time_s = std::max({mem_time, compute_time, smem_time}) +
             device.smem_overlap_penalty * smem_time;
  p.p_membound_gflops = (total_flops / bytes) * device.gmem_bw_gbs * hiding;
  return p;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(const TrafficBreakdown& got, const TrafficBreakdown& want) {
  EXPECT_EQ(bits(got.load_bytes), bits(want.load_bytes));
  EXPECT_EQ(bits(got.store_bytes), bits(want.store_bytes));
  EXPECT_EQ(bits(got.halo_bytes), bits(want.halo_bytes));
  EXPECT_EQ(bits(got.smem_bytes), bits(want.smem_bytes));
}

void expect_same_bits(const Projection& got, const Projection& want) {
  EXPECT_EQ(bits(got.time_s), bits(want.time_s));
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.infeasible_reason, want.infeasible_reason);
  EXPECT_EQ(bits(got.p_membound_gflops), bits(want.p_membound_gflops));
  EXPECT_EQ(got.blocks_per_smx, want.blocks_per_smx);
  EXPECT_EQ(got.regs_estimate, want.regs_estimate);
  EXPECT_EQ(got.smem_estimate, want.smem_estimate);
}

/// serve-mixed's Table V programs: 20-50 kernels, sharing sets of 2-8.
std::vector<Program> table_v_programs() {
  std::vector<Program> out;
  for (int kernels : {20, 30, 40, 50}) {
    for (int sharing : {2, 4, 8}) {
      TestSuiteConfig config;
      config.kernels = kernels;
      config.arrays = 2 * kernels;
      config.sharing_set_size = sharing;
      out.push_back(make_testsuite_program(config));
    }
  }
  return out;
}

std::vector<Program> projection_programs(const std::string& name) {
  if (name == "scale_les") return {scale_les()};
  if (name == "homme") return {homme()};
  if (name == "rk18") return {scale_les_rk18()};
  if (name == "cloverleaf") return {cloverleaf()};
  if (name == "fig3") return {motivating_example()};
  return table_v_programs();
}

class ProjectionBitIdentity : public ::testing::TestWithParam<std::string> {};

TEST_P(ProjectionBitIdentity, ModelsAndTrafficMatchTheRecountingReference) {
  // Every original kernel, the fused groups of random legal plans of the
  // expanded program (as a search prices them) and pools of four
  // consecutive groups, which reach the Eq. 6 and Eq. 7 infeasible
  // verdicts, on all three devices; and the same with the program's
  // read-only arrays flagged, so descriptors stage through the read-only
  // cache too.
  int fused = 0;
  int flagged = 0;  // read-only arrays (CloverLeaf has none)
  int rocache = 0;
  std::vector<Program> programs;
  for (const Program& original : projection_programs(GetParam())) {
    programs.push_back(expand_arrays(original, -1.0).program);
    programs.push_back(programs.back());
    flagged += mark_readonly_arrays(programs.back());
  }
  for (const Program& program : programs) {
    for (const DeviceSpec& device :
         {DeviceSpec::k20x(), DeviceSpec::k40(), DeviceSpec::gtx750ti()}) {
      const LegalityChecker checker(program, device);
      const ProposedModel calibrated(device);
      const ProposedModel literal(
          device, {.formulation = ProposedModel::Formulation::PaperLiteral});
      std::vector<LaunchDescriptor> launches;
      for (KernelId k = 0; k < program.num_kernels(); ++k) {
        launches.push_back(descriptor_for_original(program, k));
      }
      Rng rng(0x9b17 + static_cast<std::uint64_t>(program.num_kernels()));
      for (int draw = 0; draw < 8; ++draw) {
        const FusionPlan plan = random_legal_plan(checker, rng, 0.3 + 0.1 * draw);
        std::vector<KernelId> run;  // consecutive groups pooled: oversized ones too
        for (int g = 0; g < plan.num_groups(); ++g) {
          run.insert(run.end(), plan.group(g).begin(), plan.group(g).end());
          if (g % 4 == 3) {
            launches.push_back(checker.builder().build(run));
            run.clear();
          }
          if (plan.group(g).size() < 2) continue;
          launches.push_back(checker.builder().build(plan.group(g)));
          ++fused;
        }
      }
      for (const LaunchDescriptor& launch : launches) {
        SCOPED_TRACE(device.name + " " + launch.name);
        if (!launch.rocache_arrays.empty()) ++rocache;
        expect_same_bits(compute_traffic(program, launch), reference_traffic(program, launch));
        expect_same_bits(calibrated.project(program, launch),
                         reference_projection(device, false, program, launch));
        expect_same_bits(literal.project(program, launch),
                         reference_projection(device, true, program, launch));
      }
    }
  }
  EXPECT_GT(fused, 0);
  if (flagged > 0) {
    EXPECT_GT(rocache, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, ProjectionBitIdentity,
                         ::testing::Values("scale_les", "homme", "rk18", "cloverleaf",
                                           "fig3", "table_v"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ==================================================== precision sweep

class PrecisionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrecisionSweep, WithPrecisionScalesTraffic) {
  TestSuiteConfig cfg;
  cfg.kernels = 10;
  cfg.arrays = 20;
  cfg.seed = 77;
  cfg.grid = GridDims{128, 64, 8};
  const Program dp = make_testsuite_program(cfg);
  const Program converted = dp.with_precision(GetParam());
  for (ArrayId a = 0; a < converted.num_arrays(); ++a) {
    EXPECT_EQ(converted.array(a).elem_bytes, GetParam());
  }
  const double t_dp = program_traffic(dp).gmem_total();
  const double t_conv = program_traffic(converted).gmem_total();
  EXPECT_NEAR(t_conv / t_dp, GetParam() / 8.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, PrecisionSweep, ::testing::Values(4, 8));


// ======================================================= random DAG sweep

class DagSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Dag random_dag(int n, double density) const {
    Rng rng(GetParam() * 101 + 13);
    Dag d(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.next_bool(density)) d.add_edge(u, v);  // u < v: acyclic
      }
    }
    return d;
  }
};

TEST_P(DagSweep, TransitiveReductionPreservesReachability) {
  const Dag d = random_dag(24, 0.15);
  const Dag reduced = d.transitive_reduction();
  const BitMatrix before = d.reachability();
  const BitMatrix after = reduced.reachability();
  for (int u = 0; u < d.size(); ++u) {
    for (int v = 0; v < d.size(); ++v) {
      EXPECT_EQ(before.get(u, v), after.get(u, v)) << u << "->" << v;
    }
  }
  EXPECT_LE(reduced.num_edges(), d.num_edges());
}

TEST_P(DagSweep, TopologicalOrderConsistentWithReachability) {
  const Dag d = random_dag(30, 0.1);
  const auto order = d.topological_order();
  std::vector<int> position(static_cast<std::size_t>(d.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  const BitMatrix reach = d.reachability();
  for (int u = 0; u < d.size(); ++u) {
    for (int v = 0; v < d.size(); ++v) {
      if (reach.get(u, v)) {
        EXPECT_LT(position[static_cast<std::size_t>(u)],
                  position[static_cast<std::size_t>(v)]);
      }
    }
  }
}

TEST_P(DagSweep, ReverseReachabilityIsExactTranspose) {
  const Dag d = random_dag(20, 0.2);
  const BitMatrix fwd = d.reachability();
  const BitMatrix rev = d.reverse_reachability();
  for (int u = 0; u < d.size(); ++u) {
    for (int v = 0; v < d.size(); ++v) {
      EXPECT_EQ(fwd.get(u, v), rev.get(v, u));
    }
  }
}

TEST_P(DagSweep, KinshipIsSymmetricAndTriangular) {
  TestSuiteConfig cfg;
  cfg.kernels = 14;
  cfg.arrays = 28;
  cfg.seed = GetParam();
  cfg.grid = GridDims{64, 32, 4};
  const Program p = make_testsuite_program(cfg);
  const SharingGraph g = SharingGraph::build(p);
  for (KernelId a = 0; a < p.num_kernels(); ++a) {
    for (KernelId b = a + 1; b < p.num_kernels(); ++b) {
      const int ab = g.kinship(a, b);
      EXPECT_EQ(ab, g.kinship(b, a));
      // Triangle inequality on positive chains.
      for (KernelId c = 0; c < p.num_kernels(); ++c) {
        const int ac = g.kinship(a, c);
        const int cb = g.kinship(c, b);
        if (ac > 0 && cb > 0 && ab > 0) {
          EXPECT_LE(ab, ac + cb);
        }
      }
    }
  }
}

// Word-boundary oracles. The legality queries work on member bit masks, so
// they are checked on 70- and 130-kernel programs (2 and 3 words per mask)
// against brute force that never reads the graphs' own bit matrices.
Program wide_program(int kernels, std::uint64_t seed) {
  TestSuiteConfig cfg;
  cfg.kernels = kernels;
  cfg.arrays = 2 * kernels;
  cfg.seed = seed;
  cfg.grid = GridDims{64, 32, 4};
  return make_testsuite_program(cfg);
}

constexpr int kWideKernelCounts[] = {70, 130};
constexpr int kWideSamples = 200;

/// reach[u][v]: a nonempty path u -> v, by DFS over Dag::successors.
std::vector<std::vector<char>> path_closure_by_dfs(const Dag& dag) {
  const auto n = static_cast<std::size_t>(dag.size());
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (int u = 0; u < dag.size(); ++u) {
    std::vector<int> stack(dag.successors(u).begin(), dag.successors(u).end());
    auto& row = reach[static_cast<std::size_t>(u)];
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      if (row[static_cast<std::size_t>(v)]) continue;
      row[static_cast<std::size_t>(v)] = 1;
      for (int w : dag.successors(v)) stack.push_back(w);
    }
  }
  return reach;
}

/// A random member set: uniform picks, a set grown along sharing links, or
/// a path-closed pair {a, b} plus every kernel between them.
std::vector<KernelId> random_member_set(Rng& rng, const SharingGraph& sharing,
                                        const std::vector<std::vector<char>>& reach) {
  const int n = sharing.num_kernels();
  std::vector<char> in(static_cast<std::size_t>(n), 0);
  std::vector<KernelId> g;
  auto add = [&](KernelId k) {
    if (!in[static_cast<std::size_t>(k)]) {
      in[static_cast<std::size_t>(k)] = 1;
      g.push_back(k);
    }
  };
  const auto pick = [&] { return static_cast<KernelId>(rng.next_below(static_cast<std::uint64_t>(n))); };
  const int target = 2 + static_cast<int>(rng.next_below(11));
  switch (rng.next_below(3)) {
    case 0:
      while (static_cast<int>(g.size()) < target) add(pick());
      break;
    case 1:
      add(pick());
      for (int tries = 0; tries < 4 * target && static_cast<int>(g.size()) < target; ++tries) {
        const auto& nb = sharing.neighbours(g[rng.next_below(g.size())]);
        if (!nb.empty()) add(nb[rng.next_below(nb.size())]);
      }
      break;
    default: {
      const KernelId a = pick();
      const KernelId b = pick();
      add(a);
      add(b);
      for (KernelId c = 0; c < n; ++c) {
        if (reach[static_cast<std::size_t>(a)][static_cast<std::size_t>(c)] &&
            reach[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)]) {
          add(c);
        }
      }
    }
  }
  rng.shuffle(g);  // callers pass unsorted groups too
  return g;
}

TEST_P(DagSweep, WideConvexityMatchesPathClosureOracle) {
  for (int kernels : kWideKernelCounts) {
    const Program p = wide_program(kernels, GetParam());
    const ExecutionOrderGraph exec = ExecutionOrderGraph::build(p);
    const SharingGraph sharing = SharingGraph::build(p);
    const auto reach = path_closure_by_dfs(exec.dag());
    Rng rng(GetParam() * 31 + static_cast<std::uint64_t>(kernels));
    int convex = 0;
    for (int s = 0; s < kWideSamples; ++s) {
      const std::vector<KernelId> g = random_member_set(rng, sharing, reach);
      std::vector<char> in(static_cast<std::size_t>(kernels), 0);
      for (KernelId k : g) in[static_cast<std::size_t>(k)] = 1;
      bool expected = true;
      for (KernelId a : g) {
        for (KernelId b : g) {
          for (KernelId c = 0; c < kernels && expected; ++c) {
            if (!in[static_cast<std::size_t>(c)] &&
                reach[static_cast<std::size_t>(a)][static_cast<std::size_t>(c)] &&
                reach[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)]) {
              expected = false;
            }
          }
        }
      }
      ASSERT_EQ(exec.group_is_convex(g), expected) << kernels << " kernels, sample " << s;
      convex += expected ? 1 : 0;
    }
    EXPECT_GT(convex, 0) << kernels;
    EXPECT_LT(convex, kWideSamples) << kernels;
  }
}

TEST_P(DagSweep, WideConnectivityMatchesNeighbourBfs) {
  for (int kernels : kWideKernelCounts) {
    const Program p = wide_program(kernels, GetParam());
    const ExecutionOrderGraph exec = ExecutionOrderGraph::build(p);
    const SharingGraph sharing = SharingGraph::build(p);
    const auto reach = path_closure_by_dfs(exec.dag());
    Rng rng(GetParam() * 37 + static_cast<std::uint64_t>(kernels));
    int connected = 0;
    for (int s = 0; s < kWideSamples; ++s) {
      const std::vector<KernelId> g = random_member_set(rng, sharing, reach);
      std::vector<char> in(static_cast<std::size_t>(kernels), 0);
      std::vector<char> seen(static_cast<std::size_t>(kernels), 0);
      for (KernelId k : g) in[static_cast<std::size_t>(k)] = 1;
      std::vector<KernelId> frontier{g[0]};
      seen[static_cast<std::size_t>(g[0])] = 1;
      std::size_t reached = 1;
      while (!frontier.empty()) {
        const KernelId u = frontier.back();
        frontier.pop_back();
        for (KernelId v : sharing.neighbours(u)) {
          if (in[static_cast<std::size_t>(v)] && !seen[static_cast<std::size_t>(v)]) {
            seen[static_cast<std::size_t>(v)] = 1;
            ++reached;
            frontier.push_back(v);
          }
        }
      }
      const bool expected = reached == g.size();
      ASSERT_EQ(sharing.group_connected(g), expected) << kernels << " kernels, sample " << s;
      connected += expected ? 1 : 0;
    }
    EXPECT_GT(connected, 0) << kernels;
    EXPECT_LT(connected, kWideSamples) << kernels;
  }
}

TEST_P(DagSweep, WideCyclicGroupsMatchBruteForceContraction) {
  for (int kernels : kWideKernelCounts) {
    const Program p = wide_program(kernels, GetParam());
    const LegalityChecker checker(p, DeviceSpec::k20x());
    const Dag& dag = checker.execution_order().dag();
    const std::vector<KernelId> topo = dag.topological_order();
    Rng rng(GetParam() * 41 + static_cast<std::uint64_t>(kernels));
    int schedulable = 0;
    for (int s = 0; s < kWideSamples; ++s) {
      // Even samples: contiguous runs of a topological order (always
      // schedulable); odd samples: random fused groups (often cyclic).
      std::vector<std::vector<KernelId>> groups;
      if (s % 2 == 0) {
        for (KernelId k : topo) {
          if (groups.empty() || rng.next_bool(0.3)) groups.emplace_back();
          groups.back().push_back(k);
        }
      } else {
        const int parts = 2 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(kernels)));
        groups.resize(static_cast<std::size_t>(parts));
        for (KernelId k = 0; k < kernels; ++k) {
          groups[rng.next_below(groups.size())].push_back(k);
        }
      }
      const FusionPlan plan = FusionPlan::from_groups(kernels, groups);
      // Brute force: contract, then peel groups with no incoming edge from a
      // group still present until nothing changes.
      const int ng = plan.num_groups();
      std::vector<std::vector<char>> edge(static_cast<std::size_t>(ng),
                                          std::vector<char>(static_cast<std::size_t>(ng), 0));
      for (KernelId u = 0; u < kernels; ++u) {
        for (int v : dag.successors(u)) {
          const int gu = plan.group_of(u);
          const int gv = plan.group_of(v);
          if (gu != gv) edge[static_cast<std::size_t>(gu)][static_cast<std::size_t>(gv)] = 1;
        }
      }
      std::vector<char> present(static_cast<std::size_t>(ng), 1);
      for (bool peeled = true; peeled;) {
        peeled = false;
        for (int g = 0; g < ng; ++g) {
          if (!present[static_cast<std::size_t>(g)]) continue;
          bool has_in = false;
          for (int h = 0; h < ng && !has_in; ++h) {
            has_in = present[static_cast<std::size_t>(h)] &&
                     edge[static_cast<std::size_t>(h)][static_cast<std::size_t>(g)];
          }
          if (!has_in) {
            present[static_cast<std::size_t>(g)] = 0;
            peeled = true;
          }
        }
      }
      std::vector<int> expected;
      for (int g = 0; g < ng; ++g) {
        if (present[static_cast<std::size_t>(g)]) expected.push_back(g);
      }
      ASSERT_EQ(checker.cyclic_groups(plan), expected) << kernels << " kernels, sample " << s;
      schedulable += expected.empty() ? 1 : 0;
    }
    EXPECT_GE(schedulable, kWideSamples / 2) << kernels;
    EXPECT_LT(schedulable, kWideSamples) << kernels;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, DagSweep, ::testing::Values(3u, 7u, 19u, 43u));


// ================================================= IR round-trip fuzzing

class IoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTrip, TextSerialisationIsLossless) {
  TestSuiteConfig cfg;
  cfg.kernels = 12 + static_cast<int>(GetParam() % 7);
  cfg.arrays = 2 * cfg.kernels;
  cfg.seed = GetParam();
  cfg.grid = GridDims{128, 64, 8};
  const Program p = make_testsuite_program(cfg);
  const Program q = parse_program(to_text(p));
  ASSERT_EQ(q.num_kernels(), p.num_kernels());
  ASSERT_EQ(q.num_arrays(), p.num_arrays());
  for (KernelId k = 0; k < p.num_kernels(); ++k) {
    const KernelInfo& a = p.kernel(k);
    const KernelInfo& b = q.kernel(k);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.regs_per_thread, b.regs_per_thread);
    EXPECT_EQ(a.phase, b.phase);
    ASSERT_EQ(a.accesses.size(), b.accesses.size());
    for (std::size_t i = 0; i < a.accesses.size(); ++i) {
      EXPECT_EQ(a.accesses[i].array, b.accesses[i].array);
      EXPECT_EQ(a.accesses[i].mode, b.accesses[i].mode);
      EXPECT_EQ(a.accesses[i].pattern, b.accesses[i].pattern);
      EXPECT_EQ(a.accesses[i].reads_own_product, b.accesses[i].reads_own_product);
    }
  }
  // Serialisation is a fixpoint.
  EXPECT_EQ(to_text(q), to_text(p));
}

TEST_P(IoRoundTrip, DownstreamAnalysesAgreeAfterRoundTrip) {
  TestSuiteConfig cfg;
  cfg.kernels = 14;
  cfg.arrays = 28;
  cfg.seed = GetParam();
  cfg.grid = GridDims{128, 64, 8};
  const Program p = make_testsuite_program(cfg);
  const Program q = parse_program(to_text(p));
  // Same dependency structure and same projected costs.
  const DependencyGraph dp = DependencyGraph::build(p);
  const DependencyGraph dq = DependencyGraph::build(q);
  EXPECT_EQ(dp.edges().size(), dq.edges().size());
  const DeviceSpec device = DeviceSpec::k20x();
  const TimingSimulator sim(device);
  for (KernelId k = 0; k < p.num_kernels(); ++k) {
    EXPECT_DOUBLE_EQ(sim.run_original(p, k).time_s, sim.run_original(q, k).time_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, IoRoundTrip,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

// ========================================== bank-conflict reference sweep

struct BankCase {
  int tile_width;
  int block_x;
  int elem_bytes;
};

class BankSweep : public ::testing::TestWithParam<BankCase> {};

TEST_P(BankSweep, RowDegreeMatchesBruteForce) {
  const BankCase c = GetParam();
  const DeviceSpec d = DeviceSpec::k20x();
  const BankConflictAnalysis a =
      analyze_bank_conflicts(d, c.tile_width, 8, c.elem_bytes, c.block_x);
  // Brute-force reference for the row-access degree.
  auto degree = [&](int width) {
    std::map<int, int> bank_hits;
    const int wpe = std::max(1, c.elem_bytes / d.bank_width_bytes);
    for (int lane = 0; lane < d.warp_size; ++lane) {
      const int tx = lane % c.block_x;
      const int ty = lane / c.block_x;
      const long word = (static_cast<long>(ty) * width + tx) * wpe;
      ++bank_hits[static_cast<int>(word % d.smem_banks)];
    }
    int worst = 0;
    for (const auto& [bank, hits] : bank_hits) worst = std::max(worst, hits);
    return worst;
  };
  // The analysis reports max(row, column) degree, so it must dominate the
  // row-only reference.
  EXPECT_GE(a.degree_unpadded, degree(c.tile_width));
  EXPECT_GE(a.degree_padded, degree(c.tile_width + 1));
  EXPECT_GE(a.degree_unpadded, 1);
  EXPECT_GT(a.padding_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BankSweep,
    ::testing::Values(BankCase{32, 32, 8}, BankCase{34, 32, 8}, BankCase{32, 16, 8},
                      BankCase{33, 16, 4}, BankCase{64, 32, 4}, BankCase{40, 8, 8},
                      BankCase{36, 4, 8}),
    [](const ::testing::TestParamInfo<BankCase>& info) {
      return "w" + std::to_string(info.param.tile_width) + "_b" +
             std::to_string(info.param.block_x) + "_e" +
             std::to_string(info.param.elem_bytes);
    });

// ================================== traffic model vs functional executor

class TrafficCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrafficCrossCheck, AnalyticAndFunctionalCountsCorrelate) {
  // The traffic model's byte counts (analytic) and the block executor's
  // element-exact first-touch counts measure the same thing with different
  // halo accounting; per whole program they must agree within 25%.
  TestSuiteConfig cfg;
  cfg.kernels = 8;
  cfg.arrays = 14;
  cfg.seed = GetParam();
  cfg.with_bodies = true;
  cfg.grid = GridDims{64, 32, 4};
  const Program p = make_testsuite_program(cfg);
  const double analytic_elems = program_traffic(p).gmem_total() / 8.0;
  GridSet grids(p);
  const ExecCounters functional = BlockExecutor(p).run(grids);
  const double ratio = analytic_elems / functional.gmem_ops();
  EXPECT_GT(ratio, 0.75) << analytic_elems << " vs " << functional.gmem_ops();
  EXPECT_LT(ratio, 1.34) << analytic_elems << " vs " << functional.gmem_ops();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficCrossCheck,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace kf
