// Unit tests for kf_model: the Roofline / simple / proposed projection
// models, including the paper's worked K20X example for Eq. 8-9 and the
// motivating example's model disagreement (§IV).
#include <gtest/gtest.h>

#include "apps/motivating_example.hpp"
#include "fusion/fused_kernel.hpp"
#include "gpu/timing_simulator.hpp"
#include "model/proposed_model.hpp"
#include "model/roofline_model.hpp"
#include "model/simple_model.hpp"
#include "util/error.hpp"

namespace kf {
namespace {

class ModelsTest : public ::testing::Test {
 protected:
  Program program_ = motivating_example(GridDims{256, 128, 16});
  DeviceSpec device_ = DeviceSpec::k20x();
  TimingSimulator sim_{device_};
  FusedKernelBuilder builder_{program_};

  LaunchDescriptor group_cde() const {
    return builder_.build(std::vector<KernelId>{program_.find_kernel("Kern_C"),
                                                program_.find_kernel("Kern_D"),
                                                program_.find_kernel("Kern_E")});
  }
  LaunchDescriptor group_ab() const {
    return builder_.build(std::vector<KernelId>{program_.find_kernel("Kern_A"),
                                                program_.find_kernel("Kern_B")});
  }
};

TEST_F(ModelsTest, RooflineIsOptimistic) {
  const RooflineModel roofline(device_);
  const ProposedModel proposed(device_);
  const LaunchDescriptor d = group_cde();
  const Projection pr = roofline.project(program_, d);
  const Projection pp = proposed.project(program_, d);
  ASSERT_TRUE(pr.feasible);
  ASSERT_TRUE(pp.feasible);
  // Roofline assumes perfect reuse and no resource pressure: it always
  // projects a runtime no larger than the proposed bound.
  EXPECT_LE(pr.time_s, pp.time_s);
}

TEST_F(ModelsTest, SimpleModelBetweenRooflineAndOriginalSum) {
  const SimpleModel simple(program_, sim_);
  const RooflineModel roofline(device_);
  const LaunchDescriptor d = group_cde();
  double original_sum = 0;
  for (KernelId k : d.members) original_sum += sim_.run_original(program_, k).time_s;
  const double ts = simple.project(program_, d).time_s;
  EXPECT_LT(ts, original_sum);
  EXPECT_GT(ts, roofline.project(program_, d).time_s);
}

TEST_F(ModelsTest, ProposedDetectsResourcePressure) {
  // On a device with tiny SMEM the proposed model must flag the fusion,
  // while Roofline happily stays optimistic.
  DeviceSpec tiny = device_.with_smem_capacity(2048);
  const ProposedModel proposed(tiny);
  const RooflineModel roofline(tiny);
  const LaunchDescriptor d = group_cde();
  EXPECT_FALSE(proposed.project(program_, d).feasible);
  EXPECT_TRUE(roofline.project(program_, d).feasible);
}

TEST_F(ModelsTest, ProposedRegisterConstraint) {
  DeviceSpec regs = device_;
  regs.max_regs_per_thread = 8;
  const ProposedModel proposed(regs);
  const Projection p = proposed.project(program_, group_ab());
  EXPECT_FALSE(p.feasible);
  EXPECT_NE(p.infeasible_reason.find("Eq.6"), std::string::npos);
}

TEST_F(ModelsTest, SingletonProjectionTracksSimulator) {
  const ProposedModel proposed(device_);
  for (KernelId k = 0; k < program_.num_kernels(); ++k) {
    const LaunchDescriptor d = descriptor_for_original(program_, k);
    const double projected = proposed.project(program_, d).time_s;
    const double measured = sim_.run(program_, d).time_s;
    // The projection is a *bound*: it should be in the right regime
    // (within 3x) and generally not wildly above the measurement.
    EXPECT_GT(projected, measured * 0.2) << program_.kernel(k).name;
    EXPECT_LT(projected, measured * 3.0) << program_.kernel(k).name;
  }
}

TEST_F(ModelsTest, HaloRecomputeRaisesProjectedTime) {
  // The FLOP-normalised literal formulation shows the halo penalty
  // directly (the calibrated bound may be memory-dominated either way).
  const ProposedModel proposed(device_,
                               {.formulation = ProposedModel::Formulation::PaperLiteral});
  LaunchDescriptor d = group_ab();
  ASSERT_TRUE(d.recompute_halo);
  LaunchDescriptor no_halo = d;
  no_halo.recompute_halo = false;
  no_halo.flops_per_site -= no_halo.halo_flops_per_site;
  no_halo.halo_flops_per_site = 0;
  const double with = proposed.project(program_, d).time_s;
  const double without = proposed.project(program_, no_halo).time_s;
  EXPECT_GT(with, without);
}

// The paper's worked example after Eq. 8 (§IV-B): three kernels sharing two
// arrays, one halo layer, T_B = 86 of Thr = 128, Hal = 32 points,
// Blocks_SMX = 32, B = 64 -> B_Sh = 688 and 29.8 GFLOPS bound on K20X.
TEST(ProposedModelWorkedExample, MatchesPaperNumbers) {
  // Reconstruct the quantities directly from the equations the model uses.
  const DeviceSpec k20x = DeviceSpec::k20x();
  const int t_b = 86;
  const int blocks_smx = 32;
  const int shr = 2;
  const int thr = 128;
  const long b = 64;
  const int hal = 32;
  const int h_th = (hal + thr - 1) / thr;  // = 1
  EXPECT_EQ(h_th, 1);
  const double b_sh = static_cast<double>(t_b) * blocks_smx / ((1 + h_th) * shr);
  EXPECT_DOUBLE_EQ(b_sh, 688.0);
  const double b_eff = b_sh * k20x.num_smx / (static_cast<double>(thr) * b);
  const double p_membound = b_eff * k20x.gmem_bw_gbs / 8.0;
  EXPECT_NEAR(p_membound, 29.7, 0.2);  // 75.8% of the 39.39 GFLOPS roofline
  EXPECT_NEAR(p_membound / 39.39, 0.758, 0.01);
}

TEST_F(ModelsTest, MotivatingExampleModelOrdering) {
  // §IV: for Kernel Y the Roofline and simple models project a speedup,
  // the paper's (literal) proposed model projects a *higher* time than
  // both — the ordering roofline < simple < proposed must hold.
  const RooflineModel roofline(device_);
  const SimpleModel simple(program_, sim_);
  const ProposedModel proposed(device_,
                               {.formulation = ProposedModel::Formulation::PaperLiteral});
  const LaunchDescriptor y = group_cde();
  const double tr = roofline.project(program_, y).time_s;
  const double ts = simple.project(program_, y).time_s;
  const double tp = proposed.project(program_, y).time_s;
  EXPECT_LT(tr, ts);
  EXPECT_LT(ts, tp);
}

TEST_F(ModelsTest, DominantElemBytes) {
  EXPECT_EQ(dominant_elem_bytes(program_), 8);
  Program sp("single", GridDims{8, 8, 1});
  sp.add_array("x", 4);
  EXPECT_EQ(dominant_elem_bytes(sp), 4);
}

TEST_F(ModelsTest, ModelsExposeNames) {
  EXPECT_EQ(RooflineModel(device_).name(), "roofline");
  EXPECT_EQ(SimpleModel(program_, sim_).name(), "simple");
  EXPECT_EQ(ProposedModel(device_).name(), "proposed");
}

TEST_F(ModelsTest, FactoryMapsObjectiveNames) {
  const std::pair<const char*, const char*> names[] = {{"proposed", "proposed"},
                                                       {"literal", "proposed-literal"},
                                                       {"roofline", "roofline"},
                                                       {"simple", "simple"}};
  for (const auto& [objective, model] : names) {
    EXPECT_EQ(make_projection_model(objective, program_, sim_)->name(), model);
  }
  EXPECT_THROW(make_projection_model("bogus", program_, sim_), PreconditionError);
}

}  // namespace
}  // namespace kf
