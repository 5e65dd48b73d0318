// Unit tests for kf_fusion: plan invariants, fused-kernel descriptor
// construction, legality constraints, the transformer, reducible traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "fusion/fused_kernel.hpp"
#include "fusion/fusion_plan.hpp"
#include "fusion/legality.hpp"
#include "fusion/reducible_traffic.hpp"
#include "fusion/transformer.hpp"
#include "graph/array_expansion.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace kf {
namespace {

// ---------- FusionPlan ----------

TEST(FusionPlan, IdentityPlan) {
  const FusionPlan plan(5);
  EXPECT_EQ(plan.num_groups(), 5);
  EXPECT_EQ(plan.fused_group_count(), 0);
  for (KernelId k = 0; k < 5; ++k) EXPECT_EQ(plan.group_of(k), k);
}

TEST(FusionPlan, FromGroupsValidatesPartition) {
  EXPECT_NO_THROW(FusionPlan::from_groups(4, {{0, 1}, {2}, {3}}));
  EXPECT_THROW(FusionPlan::from_groups(4, {{0, 1}, {1, 2}, {3}}), PreconditionError);
  EXPECT_THROW(FusionPlan::from_groups(4, {{0, 1}, {3}}), PreconditionError);
  EXPECT_THROW(FusionPlan::from_groups(4, {{0, 1, 9}, {2}, {3}}), PreconditionError);
}

TEST(FusionPlan, MergeMoveSplitKeepPartition) {
  FusionPlan plan(6);
  const int g = plan.merge_groups(0, 3);
  EXPECT_EQ(plan.num_groups(), 5);
  EXPECT_EQ(plan.group_of(0), plan.group_of(3));
  EXPECT_EQ(plan.group_of(0), g);

  plan.move_kernel(5, g);
  EXPECT_EQ(plan.group_of(5), plan.group_of(0));
  EXPECT_EQ(plan.num_groups(), 4);

  plan.split_group(plan.group_of(0));
  EXPECT_EQ(plan.num_groups(), 6);
  EXPECT_EQ(plan.fused_group_count(), 0);
}

TEST(FusionPlan, FingerprintOrderInsensitive) {
  FusionPlan a = FusionPlan::from_groups(4, {{0, 1}, {2, 3}});
  FusionPlan b = FusionPlan::from_groups(4, {{3, 2}, {1, 0}});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a, b);
  FusionPlan c = FusionPlan::from_groups(4, {{0, 2}, {1, 3}});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(FusionPlan, FusedCounts) {
  const FusionPlan plan = FusionPlan::from_groups(6, {{0, 1, 2}, {3}, {4, 5}});
  EXPECT_EQ(plan.fused_group_count(), 2);
  EXPECT_EQ(plan.fused_kernel_count(), 5);
}

// ---------- FusedKernelBuilder ----------

TEST(FusedKernel, SimpleFusionDescriptor) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const FusedKernelBuilder builder(p);
  const std::vector<KernelId> cde{p.find_kernel("Kern_C"), p.find_kernel("Kern_D"),
                                  p.find_kernel("Kern_E")};
  const LaunchDescriptor d = builder.build(cde);
  EXPECT_TRUE(d.is_fused());
  EXPECT_EQ(d.pivot_arrays.size(), 3u);  // T, Q, V
  EXPECT_FALSE(d.recompute_halo);        // read-only sharing: simple fusion
  EXPECT_EQ(d.halo_radius, 1);           // staged tiles still need read halos
  EXPECT_GE(d.barriers, 1);              // staging barrier
  EXPECT_GT(d.smem_per_block_bytes, 0);
  EXPECT_GT(d.regs_per_thread, 0);
  // FLOPs aggregate without halo recompute.
  double fl = 0;
  for (KernelId k : cde) fl += p.kernel(k).flops_per_site;
  EXPECT_DOUBLE_EQ(d.flops_per_site, fl);
  EXPECT_DOUBLE_EQ(d.halo_flops_per_site, 0.0);
}

TEST(FusedKernel, ComplexFusionDescriptor) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const FusedKernelBuilder builder(p);
  const std::vector<KernelId> ab{p.find_kernel("Kern_A"), p.find_kernel("Kern_B")};
  const LaunchDescriptor d = builder.build(ab);
  EXPECT_TRUE(d.recompute_halo);  // B reads A's product at radius 1
  EXPECT_GE(d.halo_radius, 1);
  EXPECT_GE(d.barriers, 1);
  EXPECT_GT(d.halo_flops_per_site, 0.0);
  double fl = 0;
  for (KernelId k : ab) fl += p.kernel(k).flops_per_site;
  EXPECT_GT(d.flops_per_site, fl);  // halo recompute adds work
}

TEST(FusedKernel, SingletonDelegatesToOriginal) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const FusedKernelBuilder builder(p);
  const std::vector<KernelId> solo{p.find_kernel("Kern_D")};
  const LaunchDescriptor d = builder.build(solo);
  EXPECT_EQ(d.name, "Kern_D");
  EXPECT_FALSE(d.is_fused());
}

TEST(FusedKernel, RegistersGrowWithMembers) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const FusedKernelBuilder builder(p);
  const std::vector<KernelId> two{p.find_kernel("Kern_C"), p.find_kernel("Kern_E")};
  const std::vector<KernelId> three{p.find_kernel("Kern_C"), p.find_kernel("Kern_D"),
                                    p.find_kernel("Kern_E")};
  EXPECT_GT(builder.build(three).regs_per_thread, 0);
  EXPECT_GE(builder.build(three).regs_per_thread, builder.build(two).regs_per_thread);
}

// ---------- legality ----------

TEST(Legality, MotivatingPlanIsLegal) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const FusionPlan plan = motivating_plan(p);
  EXPECT_TRUE(checker.plan_is_legal(plan));
}

TEST(Legality, DisconnectedGroupRejected) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const LegalityChecker checker(p, DeviceSpec::k20x());
  // Kern_A and Kern_C share nothing.
  const std::vector<KernelId> ac{p.find_kernel("Kern_A"), p.find_kernel("Kern_C")};
  const std::vector<KernelId> ca(ac.rbegin(), ac.rend());
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(checker.check_group(ac), LegalityVerdict::NotConnected);
    EXPECT_EQ(checker.check_group(ca), LegalityVerdict::NotConnected);
  }
}

TEST(Legality, NonConvexGroupRejected) {
  // chain k0 -> k1 -> k2 through arrays; {k0, k2} skips k1.
  Program p("chain", GridDims{32, 16, 4});
  const ArrayId a = p.add_array("a");
  const ArrayId b = p.add_array("b");
  const ArrayId c = p.add_array("c");
  const ArrayId d = p.add_array("d");
  auto make = [&](const char* name, ArrayId in, ArrayId out) {
    KernelInfo k;
    k.name = name;
    k.body.push_back({out, Expr::load(in, {-1, 0, 0}) + Expr::load(in, {0, 0, 0})});
    k.derive_metadata_from_body();
    p.add_kernel(std::move(k));
  };
  make("k0", a, b);
  make("k1", b, c);
  make("k2", c, d);
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const std::vector<KernelId> skip{0, 2};
  // k0 and k2 share nothing directly either; use a variant where they do:
  EXPECT_NE(checker.check_group(skip), LegalityVerdict::Ok);
  const std::vector<KernelId> full{0, 1, 2};
  EXPECT_EQ(checker.check_group(full), LegalityVerdict::Ok);
}

TEST(Legality, ConvexityViolationSpecifically) {
  // k0 writes b (read by k1 and k2); k1 writes c read by k2.
  // {k0, k2} share array b directly, but the path k0->k1->k2 makes the
  // pair non-convex.
  Program p("convex", GridDims{32, 16, 4});
  const ArrayId a = p.add_array("a");
  const ArrayId b = p.add_array("b");
  const ArrayId c = p.add_array("c");
  const ArrayId d = p.add_array("d");
  auto make = [&](const char* name, std::vector<ArrayId> ins, ArrayId out) {
    KernelInfo k;
    k.name = name;
    Expr e = Expr::constant(0);
    for (ArrayId in : ins) e = e + Expr::load(in, {0, 0, 0}) + Expr::load(in, {-1, 0, 0});
    k.body.push_back({out, e});
    k.derive_metadata_from_body();
    p.add_kernel(std::move(k));
  };
  make("k0", {a}, b);
  make("k1", {b}, c);
  make("k2", {b, c}, d);
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const std::vector<KernelId> pair{0, 2};
  EXPECT_EQ(checker.check_group(pair), LegalityVerdict::NotConvex);
}

TEST(Legality, SmemOverflowDetected) {
  // Many wide shared arrays on a tiny-SMEM device.
  const Program p = motivating_example(GridDims{64, 32, 8});
  DeviceSpec tiny = DeviceSpec::k20x().with_smem_capacity(1024);
  const LegalityChecker checker(p, tiny);
  const std::vector<KernelId> cde{p.find_kernel("Kern_C"), p.find_kernel("Kern_D"),
                                  p.find_kernel("Kern_E")};
  const std::vector<KernelId> edc(cde.rbegin(), cde.rend());
  // The second pass and the reversed order are answered by the memo.
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(checker.check_group(cde), LegalityVerdict::SmemOverflow);
    EXPECT_EQ(checker.check_group(edc), LegalityVerdict::SmemOverflow);
  }
}

TEST(Legality, RegOverflowDetected) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  DeviceSpec regs = DeviceSpec::k20x();
  regs.max_regs_per_thread = 40;
  const LegalityChecker checker(p, regs);
  const std::vector<KernelId> cde{p.find_kernel("Kern_C"), p.find_kernel("Kern_D"),
                                  p.find_kernel("Kern_E")};
  const std::vector<KernelId> edc(cde.rbegin(), cde.rend());
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(checker.check_group(cde), LegalityVerdict::RegOverflow);
    EXPECT_EQ(checker.check_group(edc), LegalityVerdict::RegOverflow);
  }
}

TEST(Legality, RepeatedAndOutOfRangeMembers) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const KernelId c = p.find_kernel("Kern_C");
  const KernelId d = p.find_kernel("Kern_D");
  const KernelId e = p.find_kernel("Kern_E");
  const std::vector<KernelId> cde{c, d, e};
  ASSERT_EQ(checker.check_group(cde), LegalityVerdict::Ok);
  // A repeated member is not a distinct kernel: the group cannot be
  // connected, even when its distinct members are a known-legal group.
  const std::vector<KernelId> cc{c, c};
  const std::vector<KernelId> cdde{c, d, d, e};
  EXPECT_EQ(checker.check_group(cc), LegalityVerdict::NotConnected);
  EXPECT_EQ(checker.check_group(cdde), LegalityVerdict::NotConnected);
  // Bad ids throw, and leave the checker answering as before.
  const std::vector<KernelId> past_end{c, p.num_kernels()};
  const std::vector<KernelId> negative{c, -1};
  const std::vector<KernelId> far{e, d, 1 << 20};
  EXPECT_THROW(checker.check_group(past_end), PreconditionError);
  EXPECT_THROW(checker.check_group(negative), PreconditionError);
  EXPECT_THROW(checker.check_group(far), PreconditionError);
  EXPECT_EQ(checker.check_group(cde), LegalityVerdict::Ok);
  EXPECT_EQ(checker.check_group(cc), LegalityVerdict::NotConnected);
}

TEST(Legality, ConcurrentChecksMatchSerial) {
  // Groups grown along sharing links on a wide program, so many of them
  // reach the resource check; a small SMEM budget makes some overflow.
  const Program p = scale_les_rk18(GridDims{64, 32, 8});
  const DeviceSpec device = DeviceSpec::k20x().with_smem_capacity(12 * 1024);
  const LegalityChecker serial(p, device);
  Rng rng(2024);
  std::vector<std::vector<KernelId>> groups;
  for (int i = 0; i < 400; ++i) {
    std::vector<KernelId> g{static_cast<KernelId>(
        rng.next_below(static_cast<std::uint64_t>(p.num_kernels())))};
    const int size = 2 + static_cast<int>(rng.next_below(5));
    for (int tries = 0; tries < 20 && static_cast<int>(g.size()) < size; ++tries) {
      const auto& nb = serial.sharing().neighbours(g[rng.next_below(g.size())]);
      if (nb.empty()) continue;
      const KernelId k = nb[rng.next_below(nb.size())];
      if (std::find(g.begin(), g.end(), k) == g.end()) g.push_back(k);
    }
    groups.push_back(std::move(g));
  }
  std::vector<LegalityVerdict> expected;
  std::vector<int> seen(7, 0);
  for (const auto& g : groups) {
    expected.push_back(serial.check_group(g));
    ++seen[static_cast<std::size_t>(expected.back())];
  }
  ASSERT_GT(seen[static_cast<std::size_t>(LegalityVerdict::Ok)], 0);
  ASSERT_GT(seen[static_cast<std::size_t>(LegalityVerdict::SmemOverflow)], 0);

  const LegalityChecker shared(p, device);
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the list from its own offset, so first checks of
      // the same group race across threads.
      for (std::size_t i = 0; i < groups.size(); ++i) {
        const std::size_t j = (i + static_cast<std::size_t>(t) * 50) % groups.size();
        if (shared.check_group(groups[j]) != expected[j]) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << t;
}

TEST(Legality, CheckPlanReportsViolatingGroup) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const FusionPlan bad = FusionPlan::from_groups(
      p.num_kernels(), {{p.find_kernel("Kern_A"), p.find_kernel("Kern_C")},
                        {p.find_kernel("Kern_B")},
                        {p.find_kernel("Kern_D")},
                        {p.find_kernel("Kern_E")}});
  int group = -1;
  EXPECT_EQ(checker.check_plan(bad, &group), LegalityVerdict::NotConnected);
  EXPECT_EQ(group, 0);
}

// ---------- transformer ----------

TEST(Transformer, AppliesMotivatingPlan) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const FusedProgram fused = apply_fusion(checker, motivating_plan(p));
  EXPECT_EQ(fused.num_new_kernels(), 2);
  EXPECT_EQ(fused.program.num_kernels(), 2);
  EXPECT_TRUE(fused.program.fully_executable());
  // Members recorded and sorted.
  EXPECT_EQ(fused.members[0].size() + fused.members[1].size(), 5u);
}

TEST(Transformer, FusedKernelHidesInternalArrays) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const FusedProgram fused = apply_fusion(checker, motivating_plan(p));
  // Find kernel X = {Kern_A, Kern_B}: reads B, C; writes A, D, Mx, Mn;
  // its read of A is internal.
  const ArrayId array_a = fused.program.find_array("A");
  for (int j = 0; j < fused.num_new_kernels(); ++j) {
    if (fused.members[static_cast<std::size_t>(j)].size() == 2) {
      const KernelInfo& x = fused.program.kernel(j);
      const ArrayAccess* acc = x.find_access(array_a);
      ASSERT_NE(acc, nullptr);
      EXPECT_EQ(acc->mode, AccessMode::Write);  // internal read hidden
    }
  }
}

TEST(Transformer, TopologicalOrderRespected) {
  const Program p = scale_les_rk18(GridDims{64, 32, 8});
  const ExpansionResult expanded = expand_arrays(p);
  const LegalityChecker checker(expanded.program, DeviceSpec::k20x());
  // Fuse the two flux kernels with their tendency kernel (K_8, K_9, K_10).
  std::vector<std::vector<KernelId>> groups;
  const KernelId k8 = expanded.program.find_kernel("k08_qflx_dens");
  const KernelId k9 = expanded.program.find_kernel("k09_sflx_dens");
  const KernelId k10 = expanded.program.find_kernel("k10_tend_dens");
  for (KernelId k = 0; k < expanded.program.num_kernels(); ++k) {
    if (k != k8 && k != k9 && k != k10) groups.push_back({k});
  }
  groups.push_back({k8, k9, k10});
  const FusionPlan plan = FusionPlan::from_groups(expanded.program.num_kernels(), groups);
  ASSERT_TRUE(checker.plan_is_legal(plan));
  const FusedProgram fused = apply_fusion(checker, plan);
  // Producers of QFLX/SFLX inputs (velocities) must appear before the
  // fused kernel in the new program.
  int fused_pos = -1;
  int velx_pos = -1;
  for (int j = 0; j < fused.num_new_kernels(); ++j) {
    if (fused.members[static_cast<std::size_t>(j)].size() == 3) fused_pos = j;
    for (KernelId m : fused.members[static_cast<std::size_t>(j)]) {
      if (expanded.program.kernel(m).name == "k02_velx") velx_pos = j;
    }
  }
  ASSERT_GE(fused_pos, 0);
  ASSERT_GE(velx_pos, 0);
  EXPECT_LT(velx_pos, fused_pos);
}

TEST(Transformer, RejectsIllegalPlan) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const FusionPlan bad = FusionPlan::from_groups(
      p.num_kernels(), {{p.find_kernel("Kern_A"), p.find_kernel("Kern_C")},
                        {p.find_kernel("Kern_B")},
                        {p.find_kernel("Kern_D")},
                        {p.find_kernel("Kern_E")}});
  EXPECT_THROW(apply_fusion(checker, bad), PreconditionError);
}

TEST(Transformer, ResourceOverflowAllowedWhenRequested) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  DeviceSpec regs = DeviceSpec::k20x();
  regs.max_regs_per_thread = 40;
  const LegalityChecker checker(p, regs);
  const FusionPlan plan = motivating_plan(p);
  EXPECT_THROW(apply_fusion(checker, plan), PreconditionError);
  EXPECT_NO_THROW(apply_fusion(checker, plan, /*allow_resource_overflow=*/true));
}

// ---------- reducible traffic ----------

TEST(ReducibleTraffic, PositiveForMotivatingExample) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const ReducibleTrafficReport r = reducible_traffic(p);
  EXPECT_GT(r.original_bytes, 0.0);
  EXPECT_LT(r.fused_bytes, r.original_bytes);
  EXPECT_GT(r.reducible_fraction, 0.05);
  EXPECT_LT(r.reducible_fraction, 0.9);
}

TEST(ReducibleTraffic, ExpansionIncreasesOpportunity) {
  const Program p = scale_les_rk18(GridDims{64, 32, 8});
  const ReducibleTrafficReport with = reducible_traffic(p, /*expand=*/true);
  const ReducibleTrafficReport without = reducible_traffic(p, /*expand=*/false);
  EXPECT_GE(with.reducible_fraction, without.reducible_fraction - 1e-9);
}

TEST(ReducibleTraffic, ZeroForIndependentStreams) {
  // Two kernels with disjoint arrays: nothing to reuse.
  Program p("disjoint", GridDims{32, 16, 4});
  const ArrayId a = p.add_array("a");
  const ArrayId b = p.add_array("b");
  const ArrayId c = p.add_array("c");
  const ArrayId d = p.add_array("d");
  auto make = [&](const char* name, ArrayId in, ArrayId out) {
    KernelInfo k;
    k.name = name;
    k.body.push_back({out, Expr::load(in, {0, 0, 0})});
    k.derive_metadata_from_body();
    p.add_kernel(std::move(k));
  };
  make("k0", a, b);
  make("k1", c, d);
  const ReducibleTrafficReport r = reducible_traffic(p);
  EXPECT_DOUBLE_EQ(r.reducible_fraction, 0.0);
}

}  // namespace
}  // namespace kf
