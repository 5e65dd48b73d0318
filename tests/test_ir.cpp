// Unit tests for kf_ir: stencil patterns, expressions, kernel metadata
// derivation, program validation and text round-tripping.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>

#include "ir/expression.hpp"
#include "ir/kernel_info.hpp"
#include "ir/program.hpp"
#include "ir/program_io.hpp"
#include "ir/stencil_pattern.hpp"
#include "util/error.hpp"

namespace kf {
namespace {

// ---------- StencilPattern ----------

TEST(StencilPattern, PointHasLoadOne) {
  const StencilPattern p = StencilPattern::point();
  EXPECT_EQ(p.size(), 1);
  EXPECT_EQ(p.thread_load(), 1);
  EXPECT_EQ(p.horizontal_radius(), 0);
  EXPECT_EQ(p.vertical_radius(), 0);
}

TEST(StencilPattern, Cross2dCounts) {
  const StencilPattern p = StencilPattern::cross2d(2);
  EXPECT_EQ(p.size(), 9);  // center + 4*2
  EXPECT_EQ(p.horizontal_radius(), 2);
  EXPECT_EQ(p.thread_load(), 9);
}

TEST(StencilPattern, Box2dCounts) {
  EXPECT_EQ(StencilPattern::box2d(1).size(), 9);
  EXPECT_EQ(StencilPattern::box2d(2).size(), 25);
}

TEST(StencilPattern, ColumnVerticalOnly) {
  const StencilPattern p = StencilPattern::column(2);
  EXPECT_EQ(p.size(), 5);
  EXPECT_EQ(p.horizontal_radius(), 0);
  EXPECT_EQ(p.vertical_radius(), 2);
  // Vertical offsets do not add thread load (threads march over k).
  EXPECT_EQ(p.thread_load(), 1);
}

TEST(StencilPattern, Backward2d) {
  const StencilPattern p = StencilPattern::backward2d(4);
  EXPECT_EQ(p.size(), 4);
  EXPECT_EQ(p.horizontal_radius(), 1);
  EXPECT_TRUE(p.contains({-1, -1, 0}));
  EXPECT_THROW(StencilPattern::backward2d(5), PreconditionError);
}

TEST(StencilPattern, WithThreadLoadExact) {
  for (int load : {1, 2, 4, 7, 8, 12}) {
    EXPECT_EQ(StencilPattern::with_thread_load(load).thread_load(), load)
        << "load=" << load;
  }
}

TEST(StencilPattern, DeduplicatesOffsets) {
  const StencilPattern p({{0, 0, 0}, {0, 0, 0}, {1, 0, 0}});
  EXPECT_EQ(p.size(), 2);
}

TEST(StencilPattern, MergeIsUnion) {
  const StencilPattern a({{0, 0, 0}, {1, 0, 0}});
  const StencilPattern b({{0, 0, 0}, {0, 1, 0}});
  EXPECT_EQ(a.merged_with(b).size(), 3);
}

// ---------- Expr ----------

TEST(Expr, ConstantAndLoadEval) {
  const Expr e = Expr::constant(2.5);
  EXPECT_DOUBLE_EQ(e.eval([](ArrayId, const Offset&) { return 0.0; }), 2.5);

  const Expr l = Expr::load(3, {1, 0, 0});
  EXPECT_DOUBLE_EQ(l.eval([](ArrayId a, const Offset& o) {
    return a * 10.0 + o.dx;
  }),
                   31.0);
}

TEST(Expr, ArithmeticEval) {
  const Expr a = Expr::constant(6);
  const Expr b = Expr::constant(3);
  auto v = [](const Expr& e) {
    return e.eval([](ArrayId, const Offset&) { return 0.0; });
  };
  EXPECT_DOUBLE_EQ(v(a + b), 9);
  EXPECT_DOUBLE_EQ(v(a - b), 3);
  EXPECT_DOUBLE_EQ(v(a * b), 18);
  EXPECT_DOUBLE_EQ(v(a / b), 2);
  EXPECT_DOUBLE_EQ(v(Expr::min(a, b)), 3);
  EXPECT_DOUBLE_EQ(v(Expr::max(a, b)), 6);
}

TEST(Expr, FlopsCountsArithmeticNodes) {
  const Expr e = (Expr::constant(1) + Expr::constant(2)) * Expr::constant(3);
  EXPECT_EQ(e.flops(), 2);
  EXPECT_EQ(Expr::constant(5).flops(), 0);
}

TEST(Expr, LoadsAndPatternFor) {
  const Expr e = Expr::load(0, {0, 0, 0}) + Expr::load(0, {-1, 0, 0}) +
                 Expr::load(1, {0, 0, 0});
  EXPECT_EQ(e.loads().size(), 3u);
  EXPECT_EQ(e.pattern_for(0).size(), 2);
  EXPECT_EQ(e.pattern_for(1).size(), 1);
  EXPECT_TRUE(e.pattern_for(2).empty());
}

TEST(Expr, RemapArrays) {
  const Expr e = Expr::load(0) + Expr::load(1);
  const Expr r = e.with_remapped_arrays([](ArrayId a) { return a + 10; });
  auto loads = r.loads();
  EXPECT_EQ(loads[0].first, 10);
  EXPECT_EQ(loads[1].first, 11);
}

TEST(Expr, DeepNestedTreeEvaluates) {
  Expr acc = Expr::constant(0);
  for (int i = 1; i <= 50; ++i) acc = acc + Expr::constant(i);
  EXPECT_DOUBLE_EQ(acc.eval([](ArrayId, const Offset&) { return 0.0; }), 1275.0);
  EXPECT_EQ(acc.flops(), 50);
}

// ---------- KernelInfo ----------

KernelInfo sample_kernel() {
  KernelInfo k;
  k.name = "sample";
  k.body.push_back({/*out=*/2, Expr::constant(0.5) * (Expr::load(0, {0, 0, 0}) +
                                                      Expr::load(0, {-1, 0, 0}) +
                                                      Expr::load(1, {0, 0, 0}))});
  k.derive_metadata_from_body();
  return k;
}

TEST(KernelInfo, DeriveMetadataFromBody) {
  const KernelInfo k = sample_kernel();
  ASSERT_EQ(k.accesses.size(), 3u);
  EXPECT_TRUE(k.reads(0));
  EXPECT_TRUE(k.reads(1));
  EXPECT_TRUE(k.writes(2));
  EXPECT_FALSE(k.writes(0));
  EXPECT_EQ(k.find_access(0)->pattern.thread_load(), 2);
  EXPECT_EQ(k.find_access(1)->pattern.thread_load(), 1);
  EXPECT_EQ(k.max_halo_radius(), 1);
  EXPECT_DOUBLE_EQ(k.flops_per_site, 3.0);  // one mul + two adds
}

TEST(KernelInfo, FlopsForArraySharesEvenly) {
  const KernelInfo k = sample_kernel();
  EXPECT_DOUBLE_EQ(k.flops_for_array(0) + k.flops_for_array(1), 3.0);
  EXPECT_DOUBLE_EQ(k.flops_for_array(2), 0.0);
}

TEST(KernelInfo, ReadWriteClassification) {
  KernelInfo k;
  k.name = "rmw";
  k.body.push_back({0, Expr::load(0, {0, 0, 0}) + Expr::constant(1)});
  k.derive_metadata_from_body();
  ASSERT_EQ(k.accesses.size(), 1u);
  EXPECT_EQ(k.accesses[0].mode, AccessMode::ReadWrite);
}

TEST(KernelInfo, DeriveRequiresBody) {
  KernelInfo k;
  EXPECT_THROW(k.derive_metadata_from_body(), PreconditionError);
}

// ---------- Program ----------

Program tiny_program() {
  Program p("tiny", GridDims{64, 32, 8});
  const ArrayId in = p.add_array("in");
  const ArrayId out = p.add_array("out");
  KernelInfo k;
  k.name = "copy";
  k.body.push_back({out, Expr::load(in, {0, 0, 0})});
  k.derive_metadata_from_body();
  p.add_kernel(std::move(k));
  return p;
}

TEST(Program, BasicAccessors) {
  const Program p = tiny_program();
  EXPECT_EQ(p.num_arrays(), 2);
  EXPECT_EQ(p.num_kernels(), 1);
  EXPECT_EQ(p.find_array("in"), 0);
  EXPECT_EQ(p.find_array("nope"), kInvalidArray);
  EXPECT_EQ(p.find_kernel("copy"), 0);
  EXPECT_TRUE(p.fully_executable());
  EXPECT_NO_THROW(p.validate());
}

TEST(Program, BlocksComputedFromLaunch) {
  const Program p = tiny_program();  // 64x32 plane, 32x4 blocks
  EXPECT_EQ(p.blocks(), (64 / 32) * (32 / 4));
  EXPECT_DOUBLE_EQ(p.array_bytes(0), 64.0 * 32 * 8 * 8);
}

TEST(Program, RejectsDuplicateNames) {
  Program p("dup", GridDims{8, 8, 1});
  p.add_array("x");
  EXPECT_THROW(p.add_array("x"), PreconditionError);
}

TEST(Program, RejectsBadElemBytes) {
  Program p("bad", GridDims{8, 8, 1});
  ArrayInfo info;
  info.name = "x";
  info.elem_bytes = 3;
  EXPECT_THROW(p.add_array(std::move(info)), PreconditionError);
}

TEST(Program, ValidateCatchesOutOfRangeArray) {
  Program p("bad", GridDims{8, 8, 1});
  p.add_array("x");
  KernelInfo k;
  k.name = "broken";
  ArrayAccess acc;
  acc.array = 5;  // out of range
  acc.mode = AccessMode::Write;
  k.accesses.push_back(acc);
  p.add_kernel(std::move(k));
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(Program, ValidateCatchesNonCenterWrite) {
  Program p("bad", GridDims{8, 8, 1});
  const ArrayId a = p.add_array("x");
  KernelInfo k;
  k.name = "broken";
  ArrayAccess acc;
  acc.array = a;
  acc.mode = AccessMode::Write;
  acc.pattern = StencilPattern::cross2d(1);
  k.accesses.push_back(acc);
  p.add_kernel(std::move(k));
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(Program, ValidateCatchesOffsetSelfRead) {
  Program p("bad", GridDims{8, 8, 1});
  const ArrayId a = p.add_array("x");
  const ArrayId b = p.add_array("y");
  (void)b;
  KernelInfo k;
  k.name = "selfread";
  k.body.push_back({a, Expr::load(a, {-1, 0, 0})});
  k.derive_metadata_from_body();
  p.add_kernel(std::move(k));
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(Program, LaunchLimits) {
  Program p;
  EXPECT_THROW(p.set_launch(LaunchConfig{64, 32}), PreconditionError);  // 2048 threads
  EXPECT_NO_THROW(p.set_launch(LaunchConfig{32, 8}));
}

// ---------- program_io ----------

TEST(ProgramIo, RoundTripPreservesStructure) {
  Program p("roundtrip", GridDims{128, 64, 16}, LaunchConfig{16, 8});
  const ArrayId a = p.add_array("alpha");
  const ArrayId b = p.add_array("beta", 4);
  p.array(b).readonly_cache_eligible = true;
  KernelInfo k;
  k.name = "stencil";
  k.regs_per_thread = 44;
  k.addr_regs = 12;
  k.flops_per_site = 7.5;
  k.smem_in_original = false;
  ArrayAccess read;
  read.array = a;
  read.mode = AccessMode::Read;
  read.pattern = StencilPattern::cross2d(1);
  read.flops = 5.0;
  k.accesses.push_back(read);
  ArrayAccess write;
  write.array = b;
  write.mode = AccessMode::Write;
  write.flops = 2.5;
  k.accesses.push_back(write);
  p.add_kernel(std::move(k));

  const Program q = parse_program(to_text(p));
  EXPECT_EQ(q.name(), "roundtrip");
  EXPECT_EQ(q.grid().nx, 128);
  EXPECT_EQ(q.launch().block_y, 8);
  EXPECT_EQ(q.num_arrays(), 2);
  EXPECT_EQ(q.array(1).elem_bytes, 4);
  EXPECT_TRUE(q.array(1).readonly_cache_eligible);
  ASSERT_EQ(q.num_kernels(), 1);
  const KernelInfo& kk = q.kernel(0);
  EXPECT_EQ(kk.regs_per_thread, 44);
  EXPECT_FALSE(kk.smem_in_original);
  EXPECT_EQ(kk.accesses.size(), 2u);
  EXPECT_EQ(kk.accesses[0].pattern, StencilPattern::cross2d(1));
  EXPECT_DOUBLE_EQ(kk.flops_per_site, 7.5);
  // Re-serialisation is a fixpoint.
  EXPECT_EQ(to_text(q), to_text(p));
}

TEST(ProgramIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_program("bogus directive"), RuntimeError);
  EXPECT_THROW(parse_program("kernel k\naccess nope read flops=0 offsets=(0,0,0)\nend"),
               RuntimeError);
  EXPECT_THROW(parse_program("kernel k regs=1"), RuntimeError);  // unterminated
}


// ---------- checked-in fixture files ----------

class FixtureFiles : public ::testing::TestWithParam<const char*> {};

TEST_P(FixtureFiles, ParseValidateAndRoundTrip) {
  const std::string path = std::string(KF_FIXTURE_DIR) + "/" + GetParam();
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path;
  const Program p = read_program(in);
  EXPECT_GT(p.num_kernels(), 10);
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(to_text(parse_program(to_text(p))), to_text(p));
}

// Every malformed fixture in fixtures/bad must be rejected with a
// RuntimeError that names the offending line — never a crash, a silent
// acceptance, or an unwrapped PreconditionError.
TEST(BadFixtureFiles, AllRejectedWithLineNumbers) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(KF_FIXTURE_DIR) / "bad";
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".kf") continue;
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << "cannot open " << entry.path();
    try {
      read_program(in);
      ADD_FAILURE() << name << " parsed without error";
    } catch (const RuntimeError& e) {
      const std::string msg = e.what();
      const auto pos = msg.find("line ");
      ASSERT_NE(pos, std::string::npos) << name << ": no line number in '" << msg << "'";
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(msg[pos + 5])))
          << name << ": no line number in '" << msg << "'";
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " threw non-RuntimeError: " << e.what();
    }
    ++checked;
  }
  EXPECT_GE(checked, 14) << "bad-input corpus shrank";
}

INSTANTIATE_TEST_SUITE_P(Files, FixtureFiles,
                         ::testing::Values("rk18.kf", "shallow_water.kf",
                                           "cosmo.kf"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace kf
