// Unit tests for kf_util: RNG determinism and distribution sanity,
// statistics helpers, table rendering, string utilities.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace kf {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), PreconditionError);
}

TEST(Rng, NextIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.contains(-2));
  EXPECT_TRUE(seen.contains(2));
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextBoolRoughlyCalibrated) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(31);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  EXPECT_NE(child1(), child2());
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), PreconditionError);
}

TEST(Mix64, NonTrivial) {
  EXPECT_NE(mix64(0), 0u);
  EXPECT_NE(mix64(1), mix64(2));
}

TEST(Stats, MeanVarianceStdev) {
  RunningStats rs;
  for (double x : {1.0, 2.0, 3.0, 4.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.5);
  EXPECT_DOUBLE_EQ(rs.variance(), 1.25);
  EXPECT_NEAR(rs.stdev(), 1.118, 1e-3);
}

TEST(Stats, MedianOddEven) {
  // The 50th percentile of a sorted sample is its median.
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{1, 2, 3}, 50), 2.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{1, 2, 3, 4}, 50), 2.5);
}

TEST(Stats, RunningStatsMatchesBatch) {
  RunningStats rs;
  const std::vector<double> xs{3, 1, 4, 1, 5, 9, 2, 6};
  for (double x : xs) rs.add(x);
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double squares = 0.0;
  for (double x : xs) squares += (x - mean) * (x - mean);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean, 1e-12);
  EXPECT_NEAR(rs.variance(), squares / static_cast<double>(xs.size()), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Table, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.add("alpha", 1.5);
  t.add("beta", 22L);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, HumanUnits) {
  EXPECT_EQ(human_time(1.5e-6), std::string("1.50 us"));
  EXPECT_EQ(human_time(0.25), std::string("250.00 ms"));
  EXPECT_EQ(human_bytes(2048), std::string("2.0 KB"));
  EXPECT_EQ(fixed(3.14159, 2), std::string("3.14"));
}

TEST(StringUtil, SplitAndTrimAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x \n"), "x");
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
  EXPECT_TRUE(starts_with("kernel_fusion", "kernel"));
  EXPECT_FALSE(starts_with("k", "kernel"));
}

TEST(StringUtil, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(sw.elapsed_s(), 0.0);
}

TEST(Error, MacrosThrowTypedExceptions) {
  EXPECT_THROW(KF_REQUIRE(false, "boom " << 42), PreconditionError);
  EXPECT_THROW(KF_CHECK(false, "bang"), RuntimeError);
  EXPECT_NO_THROW(KF_REQUIRE(true, "fine"));
}

TEST(Error, ExceptionsFitTheStandardTaxonomy) {
  // Quarantine code catches std::runtime_error; caller misuse must NOT be
  // swallowed by that net.
  EXPECT_THROW(throw RuntimeError("x"), std::runtime_error);
  EXPECT_THROW(throw PreconditionError("x"), std::logic_error);
  try {
    throw PreconditionError("x");
  } catch (const std::runtime_error&) {
    FAIL() << "PreconditionError must not be a runtime_error";
  } catch (const std::logic_error&) {
  }
}

TEST(Error, RequireMessageCarriesExprLocationAndStreamedText) {
  try {
    KF_REQUIRE(1 + 1 == 3, "math is " << "broken " << 42);
    FAIL() << "did not throw";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("precondition failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1 + 1 == 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("test_util.cpp:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("math is broken 42"), std::string::npos) << msg;
  }
}

TEST(Error, CheckMessageCarriesExprLocationAndStreamedText) {
  try {
    KF_CHECK(false, "population " << 3 << " too small");
    FAIL() << "did not throw";
  } catch (const RuntimeError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("invariant failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(false)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("test_util.cpp:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("population 3 too small"), std::string::npos) << msg;
  }
}

TEST(Error, MacrosEvaluateConditionExactlyOnce) {
  int calls = 0;
  auto pass = [&] { ++calls; return true; };
  KF_REQUIRE(pass(), "ok");
  KF_CHECK(pass(), "ok");
  EXPECT_EQ(calls, 2);
}

TEST(Rng, StateRoundTripResumesStream) {
  Rng a(0xfeedULL);
  for (int i = 0; i < 17; ++i) a();
  const auto snapshot = a.state();
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 32; ++i) expect.push_back(a());

  Rng b(1);  // unrelated seed; state restore must fully override it
  b.set_state(snapshot);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(b(), expect[static_cast<std::size_t>(i)]);
}

TEST(Rng, SetStateRejectsAllZero) {
  Rng r(7);
  EXPECT_THROW(r.set_state({0, 0, 0, 0}), PreconditionError);
}

}  // namespace
}  // namespace kf
