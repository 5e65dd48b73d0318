// Unit tests for kf_fusion: plan invariants, fused-kernel descriptor
// construction, legality constraints, the transformer, reducible traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "apps/cloverleaf.hpp"
#include "apps/homme.hpp"
#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "apps/testsuite.hpp"
#include "fusion/fused_kernel.hpp"
#include "fusion/fusion_plan.hpp"
#include "fusion/legality.hpp"
#include "fusion/reducible_traffic.hpp"
#include "fusion/transformer.hpp"
#include "graph/array_expansion.hpp"
#include "search/population.hpp"
#include "util/error.hpp"
#include "util/flat_table.hpp"
#include "util/rng.hpp"

namespace kf {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

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

TEST(FusionPlan, EqualityIsOrderInsensitive) {
  FusionPlan a = FusionPlan::from_groups(4, {{0, 1}, {2, 3}});
  FusionPlan b = FusionPlan::from_groups(4, {{3, 2}, {1, 0}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_string(), b.to_string());
  FusionPlan c = FusionPlan::from_groups(4, {{0, 2}, {1, 3}});
  EXPECT_FALSE(a == c);
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

// ---------- FusedKernelBuilder against the build it replaced ----------

/// FusedKernelBuilder::build as it was before the builder precomputed its
/// program-wide facts and reused flat scratch: std::map/std::set
/// bookkeeping, a name from std::ostringstream, a rescan of every kernel per
/// pivot for read-only-cache eligibility and of every earlier member per
/// offset read for halo producers. Copied verbatim as the reference.
LaunchDescriptor reference_build(const Program& program_, const FusionCostParams& params_,
                                 std::span<const KernelId> group) {
  KF_REQUIRE(!group.empty(), "cannot build a descriptor for an empty group");
  std::vector<KernelId> members(group.begin(), group.end());
  std::sort(members.begin(), members.end());  // invocation order
  if (members.size() == 1) return descriptor_for_original(program_, members[0]);

  LaunchDescriptor d;
  d.members = members;
  {
    std::ostringstream os;
    os << "F[";
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i) os << '+';
      os << program_.kernel(members[i]).name;
    }
    os << ']';
    d.name = os.str();
  }

  // ---- pivot arrays: arrays touched by >= 2 members ----
  std::map<ArrayId, int> touches;
  for (KernelId k : members) {
    for (const ArrayAccess& acc : program_.kernel(k).accesses) {
      ++touches[acc.array];
    }
  }
  for (const auto& [array, count] : touches) {
    if (count >= 2) d.pivot_arrays.push_back(array);
  }

  if (params_.rocache_bytes != 0) {
    const long budget = params_.rocache_bytes < 0
                            ? DeviceSpec::k20x().readonly_cache_per_smx
                            : params_.rocache_bytes;
    long used = 0;
    std::vector<ArrayId> keep;
    for (ArrayId a : d.pivot_arrays) {
      bool eligible = program_.array(a).readonly_cache_eligible;
      for (KernelId k = 0; eligible && k < program_.num_kernels(); ++k) {
        eligible = !program_.kernel(k).writes(a);
      }
      const long tile_bytes =
          static_cast<long>(program_.launch().threads_per_block() *
                            halo_area_factor(program_.launch(), 1)) *
          program_.array(a).elem_bytes;
      if (eligible && used + tile_bytes <= budget) {
        d.rocache_arrays.push_back(a);
        used += tile_bytes;
      } else {
        keep.push_back(a);
      }
    }
    d.pivot_arrays = std::move(keep);
  }

  std::set<ArrayId> produced;
  std::set<KernelId> halo_computers;
  int sync_boundaries = 0;
  int consumer_halo = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const KernelInfo& kernel = program_.kernel(members[i]);
    bool needs_sync_before = false;
    for (const ArrayAccess& acc : kernel.accesses) {
      if (acc.is_read() && produced.contains(acc.array)) {
        needs_sync_before = true;
        const int r = acc.pattern.horizontal_radius();
        if (r > 0) {
          consumer_halo = std::max(consumer_halo, r);
          for (std::size_t j = 0; j < i; ++j) {
            if (program_.kernel(members[j]).writes(acc.array)) {
              halo_computers.insert(members[j]);
            }
          }
        }
      }
    }
    if (needs_sync_before) ++sync_boundaries;
    for (const ArrayAccess& acc : kernel.accesses) {
      if (acc.is_write() &&
          std::find(d.pivot_arrays.begin(), d.pivot_arrays.end(), acc.array) !=
              d.pivot_arrays.end()) {
        produced.insert(acc.array);
      }
    }
  }
  d.recompute_halo = consumer_halo > 0;

  int stage_radius = 0;
  for (KernelId k : members) {
    for (const ArrayAccess& acc : program_.kernel(k).accesses) {
      if (acc.is_read() && d.is_staged(acc.array)) {
        stage_radius = std::max(stage_radius, acc.pattern.horizontal_radius());
      }
    }
  }
  d.halo_radius = stage_radius + (d.recompute_halo ? consumer_halo : 0);

  const bool stages_inputs = !d.pivot_arrays.empty();
  d.barriers = (stages_inputs ? 1 : 0) + sync_boundaries;

  const LaunchConfig& launch = program_.launch();
  const long tile_elems = static_cast<long>(
      (launch.block_x + 2L * d.halo_radius + 1) *
      (launch.block_y + 2L * d.halo_radius));
  long smem = 0;
  for (ArrayId a : d.pivot_arrays) {
    smem += tile_elems * program_.array(a).elem_bytes;
  }
  long scratch = 0;
  for (KernelId k : members) {
    const KernelInfo& kernel = program_.kernel(k);
    if (!kernel.smem_in_original) continue;
    for (const ArrayAccess& acc : kernel.accesses) {
      if (!acc.is_read() || acc.pattern.thread_load() <= 1) continue;
      if (d.is_staged(acc.array)) continue;
      const int r = acc.pattern.horizontal_radius();
      const long elems = static_cast<long>((launch.block_x + 2L * r + 1) *
                                           (launch.block_y + 2L * r));
      scratch = std::max(scratch, elems * program_.array(acc.array).elem_bytes);
    }
  }
  d.smem_per_block_bytes = smem + scratch;

  int max_regs = 0;
  int sum_secondary = 0;
  int max_addr = 0;
  for (KernelId k : members) {
    const KernelInfo& kernel = program_.kernel(k);
    max_regs = std::max(max_regs, kernel.regs_per_thread);
    max_addr = std::max(max_addr, kernel.addr_regs);
    sum_secondary += std::max(0, kernel.regs_per_thread - kernel.addr_regs);
  }
  const int largest_payload = max_regs;
  sum_secondary -= std::max(0, max_regs - max_addr);
  const long halo_pts = halo_points(launch, d.halo_radius);
  const int h_th = d.recompute_halo
                       ? static_cast<int>((halo_pts + launch.threads_per_block() - 1) /
                                          launch.threads_per_block())
                       : 0;
  d.regs_per_thread =
      largest_payload +
      static_cast<int>(std::ceil(params_.secondary_reg_fraction * sum_secondary)) +
      params_.regs_per_pivot * static_cast<int>(d.pivot_arrays.size()) +
      params_.fused_addr_regs + h_th;

  double flops = 0.0;
  for (KernelId k : members) flops += program_.kernel(k).flops_per_site;
  double halo_flops = 0.0;
  if (d.recompute_halo) {
    const double halo_fraction = static_cast<double>(halo_points(launch, consumer_halo)) /
                                 launch.threads_per_block();
    for (KernelId k : halo_computers) {
      halo_flops += program_.kernel(k).flops_per_site * halo_fraction;
    }
  }
  d.flops_per_site = flops + halo_flops;
  d.halo_flops_per_site = halo_flops;
  return d;
}

/// Every field, the doubles by their bits.
bool same_descriptor(const LaunchDescriptor& a, const LaunchDescriptor& b) {
  return a.name == b.name && a.members == b.members && a.pivot_arrays == b.pivot_arrays &&
         a.rocache_arrays == b.rocache_arrays && a.halo_radius == b.halo_radius &&
         a.recompute_halo == b.recompute_halo && a.barriers == b.barriers &&
         a.regs_per_thread == b.regs_per_thread &&
         a.smem_per_block_bytes == b.smem_per_block_bytes &&
         bits(a.flops_per_site) == bits(b.flops_per_site) &&
         bits(a.halo_flops_per_site) == bits(b.halo_flops_per_site);
}

/// SCALE-LES, HOMME, rk18, CloverLeaf, fig3, then the serve-mixed
/// benchmark's twelve Table V programs.
std::vector<Program> builder_programs() {
  std::vector<Program> out;
  out.push_back(scale_les());
  out.push_back(homme());
  out.push_back(scale_les_rk18());
  out.push_back(cloverleaf());
  out.push_back(motivating_example());
  for (const int kernels : {20, 30, 40, 50}) {
    for (const int sharing : {2, 4, 8}) {
      TestSuiteConfig config;
      config.kernels = kernels;
      config.arrays = 2 * kernels;
      config.sharing_set_size = sharing;
      config.seed = 1;
      out.push_back(make_testsuite_program(config));
    }
  }
  return out;
}

/// The groups of two random legal plans, then random pair unions of their
/// groups and random single-kernel moves into them — the shapes the search
/// builds.
std::vector<std::vector<KernelId>> builder_corpus(const LegalityChecker& checker, Rng& rng) {
  std::vector<std::vector<KernelId>> out;
  for (const double aggressiveness : {0.5, 0.9}) {
    const FusionPlan plan = random_legal_plan(checker, rng, aggressiveness);
    for (int g = 0; g < plan.num_groups(); ++g) {
      out.emplace_back(plan.group(g).begin(), plan.group(g).end());
    }
    const auto groups = static_cast<std::uint64_t>(plan.num_groups());
    if (groups < 2) continue;
    for (int i = 0; i < 48; ++i) {
      const int a = static_cast<int>(rng.next_below(groups));
      int b = static_cast<int>(rng.next_below(groups - 1));
      if (b >= a) ++b;
      std::vector<KernelId> merged(plan.group(a).begin(), plan.group(a).end());
      merged.insert(merged.end(), plan.group(b).begin(), plan.group(b).end());
      out.push_back(std::move(merged));
      const std::span<const KernelId> from = plan.group(a);
      std::vector<KernelId> moved(plan.group(b).begin(), plan.group(b).end());
      moved.push_back(from[rng.next_below(from.size())]);
      out.push_back(std::move(moved));
    }
  }
  return out;
}

TEST(FusedKernel, MatchesTheReferenceBuild) {
  // Each program as the search sees it (expanded), and unexpanded with
  // every array flagged for the read-only cache, so the builder must
  // offload the read-only ones while the budget lasts, keep every written
  // one, and handle arrays that several members write.
  long builds = 0;
  long mismatches = 0;
  long offloading = 0;
  long recomputing = 0;
  std::string first_mismatch;
  for (const Program& raw : builder_programs()) {
    const Program as_searched = expand_arrays(raw).program;
    Program flagged = raw;
    for (ArrayId a = 0; a < flagged.num_arrays(); ++a) {
      flagged.array(a).readonly_cache_eligible = true;
    }
    Rng rng(0xb111d + static_cast<std::uint64_t>(raw.num_kernels()));
    for (const Program* program : {&as_searched, static_cast<const Program*>(&flagged)}) {
      for (const DeviceSpec& device :
           {DeviceSpec::k20x(), DeviceSpec::k40(), DeviceSpec::gtx750ti()}) {
        const LegalityChecker checker(*program, device);
        // The checker's builder (the device's read-only cache), no read-only
        // cache, and a budget that runs out after a couple of tiles.
        FusionCostParams device_default;
        device_default.rocache_bytes = device.readonly_cache_per_smx;
        FusionCostParams off;
        off.rocache_bytes = 0;
        FusionCostParams small;
        small.rocache_bytes = 4000;
        const FusedKernelBuilder off_builder(*program, off);
        const FusedKernelBuilder small_builder(*program, small);
        const std::pair<const FusedKernelBuilder*, FusionCostParams> variants[] = {
            {&checker.builder(), device_default}, {&off_builder, off}, {&small_builder, small}};
        for (const std::vector<KernelId>& group : builder_corpus(checker, rng)) {
          for (const auto& [builder, params] : variants) {
            const LaunchDescriptor got = builder->build(group);
            const LaunchDescriptor want = reference_build(*program, params, group);
            ++builds;
            if (!want.rocache_arrays.empty()) ++offloading;
            if (want.recompute_halo) ++recomputing;
            if (!same_descriptor(got, want)) {
              if (mismatches++ == 0) {
                first_mismatch = raw.name() + " on " + device.name + ", budget " +
                                 std::to_string(params.rocache_bytes) + ": " + want.name;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "first: " << first_mismatch;
  // The corpus reaches the read-only cache and halo recomputation.
  EXPECT_GT(offloading, 0);
  EXPECT_GT(recomputing, 0);
  EXPECT_GT(builds, 50000);
}

TEST(FusedKernel, OnlyEarlierProducersRecomputeTheHalo) {
  // k1 reads b at offsets after k0 produced it, then overwrites b: k0
  // recomputes b's halo sites; k1 consumes them and recomputes nothing.
  Program p("overwrite", GridDims{32, 16, 4});
  const ArrayId a = p.add_array("a");
  const ArrayId b = p.add_array("b");
  const ArrayId c = p.add_array("c");
  KernelInfo k0;
  k0.name = "k0";
  k0.body.push_back({b, Expr::load(a, {-1, 0, 0}) + Expr::load(a, {1, 0, 0})});
  k0.derive_metadata_from_body();
  p.add_kernel(std::move(k0));
  KernelInfo k1;
  k1.name = "k1";
  k1.body.push_back({c, Expr::load(b, {-1, 0, 0}) + Expr::load(b, {1, 0, 0})});
  k1.body.push_back({b, Expr::load(c, {0, 0, 0})});
  k1.derive_metadata_from_body();
  p.add_kernel(std::move(k1));
  p.validate();
  const std::vector<KernelId> both{0, 1};
  const LaunchDescriptor d = FusedKernelBuilder(p).build(both);
  ASSERT_TRUE(d.recompute_halo);
  const double fraction = static_cast<double>(halo_points(p.launch(), 1)) /
                          p.launch().threads_per_block();
  EXPECT_EQ(bits(d.halo_flops_per_site), bits(p.kernel(0).flops_per_site * fraction));
  EXPECT_TRUE(same_descriptor(d, reference_build(p, FusionCostParams(), both)));
}

TEST(FusedKernel, ConcurrentBuildsMatchSerial) {
  // One builder shared by 8 threads against a serial twin: the per-thread
  // scratch must keep builds independent, and the build counter exact.
  Program p = expand_arrays(scale_les()).program;
  for (ArrayId a = 0; a < p.num_arrays(); ++a) p.array(a).readonly_cache_eligible = true;
  const LegalityChecker checker(p, DeviceSpec::k20x());
  Rng rng(77);
  const std::vector<std::vector<KernelId>> groups = builder_corpus(checker, rng);
  const FusedKernelBuilder serial(p);
  std::vector<LaunchDescriptor> expected;
  for (const auto& g : groups) expected.push_back(serial.build(g));
  const long fused_per_pass = serial.fused_builds();
  ASSERT_GT(fused_per_pass, 100);

  const FusedKernelBuilder shared(p);
  constexpr int kThreads = 8;
  constexpr std::size_t kPasses = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPasses * groups.size(); ++i) {
        const std::size_t j = (i + static_cast<std::size_t>(t) * 37) % groups.size();
        if (!same_descriptor(shared.build(groups[j]), expected[j])) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << t;
  EXPECT_EQ(shared.fused_builds(), kThreads * static_cast<long>(kPasses) * fused_per_pass);
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

TEST(Legality, CheckGroupHandsOverTheDescriptorItBuilt) {
  const Program p = motivating_example(GridDims{64, 32, 8});
  const LegalityChecker checker(p, DeviceSpec::k20x());
  const std::vector<KernelId> cde{p.find_kernel("Kern_E"), p.find_kernel("Kern_C"),
                                  p.find_kernel("Kern_D")};
  const std::vector<KernelId> ac{p.find_kernel("Kern_A"), p.find_kernel("Kern_C")};
  // A memo miss builds the descriptor and hands it over.
  LaunchDescriptor built;
  ASSERT_EQ(checker.check_group(cde, &built), LegalityVerdict::Ok);
  EXPECT_EQ(checker.builder().fused_builds(), 1);
  EXPECT_TRUE(same_descriptor(built, checker.builder().build(cde)));
  // A memo hit and a cheap-check failure build nothing and leave it alone.
  const long before = checker.builder().fused_builds();
  LaunchDescriptor untouched;
  untouched.name = "sentinel";
  EXPECT_EQ(checker.check_group(cde, &untouched), LegalityVerdict::Ok);
  EXPECT_EQ(checker.check_group(ac, &untouched), LegalityVerdict::NotConnected);
  EXPECT_EQ(untouched.name, "sentinel");
  EXPECT_EQ(checker.builder().fused_builds(), before);
  // An overflowing group hands over its descriptor too.
  const LegalityChecker tiny(p, DeviceSpec::k20x().with_smem_capacity(1024));
  LaunchDescriptor overflowing;
  EXPECT_EQ(tiny.check_group(cde, &overflowing), LegalityVerdict::SmemOverflow);
  EXPECT_TRUE(same_descriptor(overflowing, built));
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
  // The groups that reach the resource check are the memo's keys. Holding
  // 8x its initial capacity, the memo doubles at least three times while
  // the threads below probe it.
  std::set<std::vector<KernelId>> memo_keys;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const LegalityVerdict v = expected[i];
    if (groups[i].size() < 2 || (v != LegalityVerdict::Ok && v != LegalityVerdict::SmemOverflow &&
                                 v != LegalityVerdict::RegOverflow)) {
      continue;
    }
    std::vector<KernelId> members = groups[i];
    std::sort(members.begin(), members.end());
    memo_keys.insert(std::move(members));
  }
  ASSERT_GE(memo_keys.size(), 8 * FlatTable<LegalityVerdict>::kInitialCapacity);

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
