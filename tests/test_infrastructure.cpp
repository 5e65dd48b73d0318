// Tests for the infrastructure extensions: the discrete-event block
// scheduler, the launch-configuration autotuner, budgeted array expansion,
// and fusion-plan text round-tripping.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "apps/cloverleaf.hpp"
#include "apps/homme.hpp"
#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "apps/shallow_water.hpp"
#include "apps/testsuite.hpp"
#include "apps/weather_zoo.hpp"
#include "fusion/transformer.hpp"
#include "graph/array_expansion.hpp"
#include "graph/dependency_graph.hpp"
#include "gpu/event_sim.hpp"
#include "gpu/launch_tuner.hpp"
#include "gpu/weak_scaling.hpp"
#include "ir/program_io.hpp"
#include "search/population.hpp"
#include "store/fingerprint.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace kf {
namespace {

// ---------- event simulator ----------

class EventSimTest : public ::testing::Test {
 protected:
  Program program_ = motivating_example(GridDims{256, 64, 16});
  DeviceSpec device_ = DeviceSpec::k20x();
  EventSimulator events_{device_};
  TimingSimulator analytic_{device_, TimingSimulator::Options{.noise_amplitude = 0.0}};
};

TEST_F(EventSimTest, DeterministicTimeline) {
  const LaunchDescriptor d = descriptor_for_original(program_, 0);
  const LaunchTimeline a = events_.run(program_, d);
  const LaunchTimeline b = events_.run(program_, d);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.blocks[i].start_s, b.blocks[i].start_s);
    EXPECT_DOUBLE_EQ(a.blocks[i].end_s, b.blocks[i].end_s);
  }
}

TEST_F(EventSimTest, AllBlocksScheduledWithinOccupancy) {
  const LaunchDescriptor d = descriptor_for_original(program_, 0);
  const LaunchTimeline t = events_.run(program_, d);
  EXPECT_EQ(static_cast<long>(t.blocks.size()), program_.blocks());
  // No SMX hosts more concurrent blocks than the occupancy allows: check
  // by slot index bound and per-slot non-overlap.
  std::map<std::pair<int, int>, double> last_end;
  for (const BlockRecord& b : t.blocks) {
    EXPECT_LT(b.slot, std::max(1, t.occupancy.blocks_per_smx));
    EXPECT_LT(b.smx, device_.num_smx);
    auto key = std::make_pair(b.smx, b.slot);
    const auto it = last_end.find(key);
    if (it != last_end.end()) {
      EXPECT_GE(b.start_s, it->second - 1e-15) << "slot overlap";
    }
    last_end[key] = b.end_s;
  }
}

TEST_F(EventSimTest, MakespanTracksAnalyticTime) {
  // The event schedule must land near the analytic estimate (it resolves
  // tail effects the closed form rounds up, so allow a generous band).
  for (KernelId k = 0; k < program_.num_kernels(); ++k) {
    const LaunchDescriptor d = descriptor_for_original(program_, k);
    const double analytic = analytic_.run(program_, d).time_s;
    const double event = events_.run(program_, d).duration_s();
    EXPECT_GT(event, analytic * 0.5) << program_.kernel(k).name;
    EXPECT_LT(event, analytic * 1.5) << program_.kernel(k).name;
  }
}

TEST_F(EventSimTest, SequenceIsSerialAcrossLaunches) {
  const LegalityChecker checker(program_, device_);
  const FusedProgram fused = apply_fusion(checker, motivating_plan(program_));
  const EventTrace trace = events_.run_sequence(program_, fused.launches);
  ASSERT_EQ(trace.launches.size(), fused.launches.size());
  for (std::size_t i = 1; i < trace.launches.size(); ++i) {
    EXPECT_GE(trace.launches[i].start_s, trace.launches[i - 1].end_s - 1e-15);
  }
  EXPECT_NEAR(trace.makespan_s, trace.launches.back().end_s, 1e-15);
  const double util = trace.utilisation(device_);
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0 + 1e-9);
}

TEST_F(EventSimTest, ChromeTraceIsWellFormed) {
  const LaunchDescriptor d = descriptor_for_original(program_, 0);
  EventTrace trace;
  trace.launches.push_back(events_.run(program_, d));
  trace.makespan_s = trace.launches[0].end_s;
  const std::string json = trace.to_chrome_trace_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // The device process is labelled for the shared-Perfetto-view convention.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"device\""), std::string::npos);
  // Same number of complete events as block records (metadata aside).
  std::size_t events = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, trace.launches[0].blocks.size());
}

TEST_F(EventSimTest, UnlaunchableKernelIsInfinite) {
  LaunchDescriptor d = descriptor_for_original(program_, 0);
  d.smem_per_block_bytes = 10 * 1024 * 1024;
  const LaunchTimeline t = events_.run(program_, d);
  EXPECT_TRUE(std::isinf(t.end_s));
}

TEST_F(EventSimTest, RecordCapTruncatesOnlyTheRecords) {
  EventSimulator::Options opts;
  opts.max_records_per_launch = 10;
  const EventSimulator capped(device_, opts);
  const LaunchDescriptor d = descriptor_for_original(program_, 0);
  const LaunchTimeline full = events_.run(program_, d);
  const LaunchTimeline trimmed = capped.run(program_, d);
  EXPECT_EQ(trimmed.blocks.size(), 10u);
  EXPECT_DOUBLE_EQ(trimmed.end_s, full.end_s);  // schedule identical
}


TEST_F(EventSimTest, SvgRenderingIsWellFormed) {
  const LegalityChecker checker(program_, device_);
  const FusedProgram fused = apply_fusion(checker, motivating_plan(program_));
  const EventTrace trace = events_.run_sequence(program_, fused.launches);
  const std::string svg = trace.to_svg(800);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per block record plus the background.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  std::size_t blocks = 0;
  for (const LaunchTimeline& t : trace.launches) blocks += t.blocks.size();
  EXPECT_EQ(rects, blocks + 1);
  EXPECT_THROW(trace.to_svg(10), PreconditionError);
}

// ---------- launch tuner ----------

TEST(LaunchTuner, PicksTheSweepMinimum) {
  const Program p = motivating_example(GridDims{256, 64, 16});
  const LaunchTunerResult r = tune_launch_config(p, DeviceSpec::k20x());
  ASSERT_FALSE(r.sweep.empty());
  double min_seen = r.sweep.front().second;
  for (const auto& [config, time] : r.sweep) min_seen = std::min(min_seen, time);
  EXPECT_DOUBLE_EQ(r.best_time_s, min_seen);
  EXPECT_GT(r.best.threads_per_block(), 0);
}

TEST(LaunchTuner, RespectsCustomCandidatesAndLimits) {
  const Program p = motivating_example(GridDims{256, 64, 16});
  const LaunchTunerResult r = tune_launch_config(
      p, DeviceSpec::k20x(), {{32, 4}, {64, 4}});
  EXPECT_EQ(r.sweep.size(), 2u);
  EXPECT_TRUE((r.best.block_x == 32 || r.best.block_x == 64));
}

TEST(LaunchTuner, ApplyingWinnerReproducesItsTime) {
  Program p = motivating_example(GridDims{256, 64, 16});
  const DeviceSpec device = DeviceSpec::k20x();
  const LaunchTunerResult r = tune_launch_config(p, device);
  p.set_launch(r.best);
  const TimingSimulator sim(device);
  EXPECT_NEAR(sim.program_time(p), r.best_time_s, 1e-12);
}

// ---------- budgeted expansion ----------

TEST(BudgetedExpansion, UnlimitedEqualsFull) {
  const Program p = scale_les_rk18(GridDims{64, 16, 4});
  const ExpansionResult full = expand_arrays(p);
  const ExpansionResult unlimited = expand_arrays(p, -1.0);
  EXPECT_EQ(full.arrays_added, unlimited.arrays_added);
  EXPECT_DOUBLE_EQ(full.extra_bytes, unlimited.extra_bytes);
}

TEST(BudgetedExpansion, ZeroBudgetIsIdentity) {
  // A zero budget is how PlanContext (and the server) spell "no expansion",
  // so the result must be the input itself, down to its text and its
  // store fingerprint: every builtin app and the serve-mixed Table V suite.
  std::vector<Program> programs = {scale_les_rk18(), cloverleaf(), shallow_water(),
                                   motivating_example(), scale_les(), homme(),
                                   wrf(), asuca(), mitgcm(), cosmo()};
  for (int kernels : {20, 30, 40, 50}) {
    for (int sharing : {2, 4, 8}) {
      TestSuiteConfig config;
      config.kernels = kernels;
      config.arrays = 2 * kernels;
      config.sharing_set_size = sharing;
      programs.push_back(make_testsuite_program(config));
    }
  }
  for (const Program& p : programs) {
    SCOPED_TRACE(p.name());
    const ExpansionResult none = expand_arrays(p, 0.0);
    EXPECT_EQ(none.arrays_added, 0);
    EXPECT_EQ(none.program.num_arrays(), p.num_arrays());
    EXPECT_EQ(to_text(none.program), to_text(p));
    EXPECT_EQ(program_fingerprint(none.program), program_fingerprint(p));
  }
}

TEST(BudgetedExpansion, BudgetRespectedAndMonotone) {
  const Program p = scale_les_rk18(GridDims{64, 16, 4});
  const double one_array = p.array_bytes(0);
  const ExpansionResult one = expand_arrays(p, one_array * 1.5);
  EXPECT_LE(one.extra_bytes, one_array * 1.5);
  EXPECT_EQ(one.arrays_added, 1);
  const ExpansionResult two = expand_arrays(p, one_array * 2.5);
  EXPECT_GE(two.arrays_added, one.arrays_added);
  EXPECT_NO_THROW(one.program.validate());
}

TEST(BudgetedExpansion, PrefersHighBenefitSites) {
  // Build a program where one expandable array removes 3 precedence edges
  // and another removes 1; a one-array budget must pick the former.
  Program p("budget", GridDims{32, 16, 4});
  const ArrayId in = p.add_array("in");
  const ArrayId hot = p.add_array("hot");
  const ArrayId cold = p.add_array("cold");
  const ArrayId sink1 = p.add_array("sink1");
  const ArrayId sink2 = p.add_array("sink2");
  const ArrayId sink3 = p.add_array("sink3");
  auto make = [&](const char* name, ArrayId read, ArrayId write) {
    KernelInfo k;
    k.name = name;
    k.body.push_back({write, Expr::load(read, {0, 0, 0}) + Expr::constant(1)});
    k.derive_metadata_from_body();
    p.add_kernel(std::move(k));
  };
  make("w_hot", in, hot);
  make("r_hot1", hot, sink1);
  make("r_hot2", hot, sink2);
  make("r_hot3", hot, sink3);
  make("w_cold", in, cold);
  make("r_cold", cold, sink1);   // second write to sink1? no — reads cold
  make("w_hot2", in, hot);       // split site: removes 3 WARs + WAW
  make("w_cold2", in, cold);     // split site: removes 1 WAR + WAW
  make("r_hot4", hot, sink2);
  make("r_cold2", cold, sink3);

  const ExpansionResult budgeted = expand_arrays(p, p.array_bytes(hot) * 1.2);
  EXPECT_EQ(budgeted.arrays_added, 1);
  EXPECT_NE(budgeted.program.find_array("hot@2"), kInvalidArray);
  EXPECT_EQ(budgeted.program.find_array("cold@2"), kInvalidArray);
}


// ---------- weak scaling ----------

TEST(WeakScaling, SingleNodeHasNoComm) {
  const Program p = scale_les_rk18(GridDims{128, 32, 8});
  EXPECT_DOUBLE_EQ(halo_exchange_bytes(p, 1), 0.0);
  const auto projection =
      project_weak_scaling(p, 1e-3, NetworkSpec::tsubame2(), {1});
  EXPECT_DOUBLE_EQ(projection.points[0].comm_s, 0.0);
  EXPECT_DOUBLE_EQ(projection.points[0].efficiency, 1.0);
}

TEST(WeakScaling, CommGrowsWithDecompositionDimensions) {
  const Program p = scale_les_rk18(GridDims{128, 32, 8});
  // 1D decomposition (2 nodes) exchanges fewer faces than 2D (4 nodes).
  const double two = halo_exchange_bytes(p, 2);
  const double four = halo_exchange_bytes(p, 4);
  EXPECT_GT(two, 0.0);
  EXPECT_GT(four, two);
  // Weak scaling: per-node halo is constant past full 2D decomposition.
  EXPECT_DOUBLE_EQ(halo_exchange_bytes(p, 16), four);
}

TEST(WeakScaling, OnlyOffsetReadWrittenArraysCommunicate) {
  // A program with center-only accesses exchanges nothing.
  Program p("centers", GridDims{64, 64, 4});
  const ArrayId in = p.add_array("in");
  const ArrayId out = p.add_array("out");
  KernelInfo k;
  k.name = "copy";
  k.body.push_back({out, Expr::load(in, {0, 0, 0})});
  k.derive_metadata_from_body();
  p.add_kernel(std::move(k));
  EXPECT_DOUBLE_EQ(halo_exchange_bytes(p, 16), 0.0);
}

TEST(WeakScaling, OverlapControlsEfficiency) {
  const Program p = scale_les_rk18(GridDims{128, 32, 8});
  NetworkSpec fast = NetworkSpec::tsubame2();
  NetworkSpec blocking = fast;
  blocking.overlap = 0.0;
  const double compute = 1e-4;  // short compute: comm dominates
  const auto hidden = project_weak_scaling(p, compute, fast, {1, 16});
  const auto exposed = project_weak_scaling(p, compute, blocking, {1, 16});
  EXPECT_LT(hidden.points[1].step_s, exposed.points[1].step_s);
  EXPECT_GE(hidden.points[1].efficiency, exposed.points[1].efficiency);
}

TEST(WeakScaling, RetentionNearOneWhenComputeDominates) {
  const Program p = scale_les_rk18(GridDims{128, 32, 8});
  const NetworkSpec network = NetworkSpec::tsubame2();
  const std::vector<int> nodes{1, 64};
  // Compute far above comm: retention ~= 1 (the paper's claim).
  const auto before = project_weak_scaling(p, 50e-3, network, nodes);
  const auto after = project_weak_scaling(p, 50e-3 / 1.3, network, nodes);
  EXPECT_NEAR(WeakScalingProjection::speedup_retention(before, after), 1.0, 0.05);
  // Compute far below comm: the fused speedup cannot carry over.
  const auto b2 = project_weak_scaling(p, 1e-5, network, nodes);
  const auto a2 = project_weak_scaling(p, 1e-5 / 1.3, network, nodes);
  EXPECT_LT(WeakScalingProjection::speedup_retention(b2, a2), 0.9);
}

// ---------- plan parsing ----------

TEST(PlanParse, RoundTripsCanonicalForm) {
  FusionPlan plan = FusionPlan::from_groups(6, {{0, 2}, {1}, {3, 4, 5}});
  plan.canonicalize();
  const FusionPlan reparsed = FusionPlan::parse(6, plan.to_string());
  EXPECT_EQ(reparsed, plan);
}

TEST(PlanParse, AcceptsWhitespaceVariants) {
  const FusionPlan plan = FusionPlan::parse(4, " {0, 1}\n{2}{3} ");
  EXPECT_EQ(plan.num_groups(), 3);
  EXPECT_EQ(plan.group_of(1), plan.group_of(0));
}

TEST(PlanParse, RejectsMalformedText) {
  EXPECT_THROW(FusionPlan::parse(3, "{0,1"), PreconditionError);
  EXPECT_THROW(FusionPlan::parse(3, "{0,1} 2"), PreconditionError);
  EXPECT_THROW(FusionPlan::parse(3, "{0,1} {1,2}"), PreconditionError);
  EXPECT_THROW(FusionPlan::parse(3, "{0,x}"), PreconditionError);
  EXPECT_THROW(FusionPlan::parse(3, "{{0}}"), PreconditionError);
}

TEST(PlanParse, SearchResultRoundTrip) {
  // A real search result survives text round-trip (the kfc save/load path).
  TestSuiteConfig cfg;
  cfg.kernels = 10;
  cfg.arrays = 20;
  cfg.seed = 31;
  cfg.grid = GridDims{128, 64, 8};
  const Program p = make_testsuite_program(cfg);
  const LegalityChecker checker(p, DeviceSpec::k20x());
  Rng rng(5);
  FusionPlan plan = random_legal_plan(checker, rng, 0.8);
  plan.canonicalize();
  const FusionPlan reparsed = FusionPlan::parse(p.num_kernels(), plan.to_string());
  EXPECT_EQ(reparsed, plan);
  EXPECT_TRUE(checker.plan_is_legal(reparsed));
}

}  // namespace
}  // namespace kf
