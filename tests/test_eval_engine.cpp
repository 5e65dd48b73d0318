// The evaluation engine (see DESIGN.md "Evaluation engine"): commutative
// allocation-free fingerprints, the sharded group-cost cache with
// quarantine folded into entries, the evaluation counter contract, batched
// deduplicated population scoring (plan_costs), and golden pins on what
// every search method returns — bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "apps/homme.hpp"
#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "apps/testsuite.hpp"
#include "model/proposed_model.hpp"
#include "search/annealing.hpp"
#include "search/driver.hpp"
#include "search/exhaustive.hpp"
#include "search/greedy.hpp"
#include "search/group_cache.hpp"
#include "search/hgga.hpp"
#include "search/population.hpp"
#include "search/random_search.hpp"
#include "serve/plan_context.hpp"
#include "util/fault_injection.hpp"
#include "util/flat_table.hpp"
#include "util/rng.hpp"

// ---- global allocation counter (for the arena zero-alloc test) ----
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kf {
namespace {

struct EngineRig {
  Program program;
  DeviceSpec device = DeviceSpec::k20x();
  TimingSimulator sim{device};
  LegalityChecker checker;
  ProposedModel model{device};
  Objective objective;

  explicit EngineRig(Program p)
      : program(std::move(p)), checker(program, device), objective(checker, model, sim) {}
};

EngineRig motivating_rig() {
  return EngineRig(motivating_example(GridDims{256, 128, 16}));
}

EngineRig suite_rig(int kernels, std::uint64_t seed = 3) {
  TestSuiteConfig cfg;
  cfg.kernels = kernels;
  cfg.arrays = kernels * 2;
  cfg.seed = seed;
  cfg.grid = GridDims{256, 128, 16};
  return EngineRig(make_testsuite_program(cfg));
}

// ---------- fingerprints ----------

TEST(GroupFingerprint, OrderInsensitive) {
  const std::vector<KernelId> abc{0, 1, 2};
  const std::vector<KernelId> cab{2, 0, 1};
  const std::vector<KernelId> bca{1, 2, 0};
  const std::uint64_t fp = Objective::group_fingerprint(abc);
  EXPECT_EQ(Objective::group_fingerprint(cab), fp);
  EXPECT_EQ(Objective::group_fingerprint(bca), fp);
}

TEST(GroupFingerprint, DistinguishesDistinctSets) {
  // All 2- and 3-subsets of 64 kernels plus all singletons: no collisions.
  std::vector<std::uint64_t> fps;
  for (KernelId a = 0; a < 64; ++a) {
    fps.push_back(Objective::group_fingerprint(std::vector<KernelId>{a}));
    for (KernelId b = a + 1; b < 64; ++b) {
      fps.push_back(Objective::group_fingerprint(std::vector<KernelId>{a, b}));
      for (KernelId c = b + 1; c < 64; ++c) {
        fps.push_back(
            Objective::group_fingerprint(std::vector<KernelId>{a, b, c}));
      }
    }
  }
  std::sort(fps.begin(), fps.end());
  EXPECT_TRUE(std::adjacent_find(fps.begin(), fps.end()) == fps.end());
}

TEST(GroupFingerprint, SizeBreaksSubsetAliasing) {
  // {k} vs {k, k} style aliasing is impossible for legal groups (member
  // sets), but the size fold must still separate e.g. {} prefix sums.
  const std::vector<KernelId> one{5};
  const std::vector<KernelId> two{5, 9};
  EXPECT_NE(Objective::group_fingerprint(one), Objective::group_fingerprint(two));
}

// ---------- FlatTable (the memo and cache shards' storage) ----------

/// A two-word key: a member mask over up to 128 kernels.
std::vector<std::uint64_t> two_word_key(std::uint64_t i) {
  return {i * 0x9e3779b97f4a7c15ULL, ~i};
}

TEST(FlatTable, GrowthKeepsEveryKeyAndValue) {
  // Enough keys to force at least three doublings whatever the load limit
  // below 1: 8x the initial capacity cannot fit in 4x of it.
  FlatTable<int> table(2);
  const std::uint64_t keys = 8 * FlatTable<int>::kInitialCapacity + 5;
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::vector<std::uint64_t> key = two_word_key(i);
    const auto [stored, inserted] = table.insert(mix64(i), key, static_cast<int>(i));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*stored, static_cast<int>(i));
  }
  EXPECT_EQ(table.size(), keys);
  EXPECT_GE(table.capacity(), 8 * FlatTable<int>::kInitialCapacity);
  for (std::uint64_t i = 0; i < keys; ++i) {
    const int* hit = table.find(mix64(i), two_word_key(i));
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(*hit, static_cast<int>(i));
  }
  // Absent keys miss: a new hash, and a stored hash with other words.
  for (std::uint64_t i = keys; i < 2 * keys; ++i) {
    EXPECT_EQ(table.find(mix64(i), two_word_key(i)), nullptr) << i;
    EXPECT_EQ(table.find(mix64(i - keys), two_word_key(i)), nullptr) << i;
  }
  EXPECT_THROW(table.find(mix64(0), std::vector<std::uint64_t>{1}), PreconditionError);
}

TEST(FlatTable, SecondInsertKeepsTheFirstValueAndReportsIt) {
  FlatTable<double> table;  // keyed by the hash alone, like a cache shard
  EXPECT_TRUE(table.insert(42, {}, 1.5).second);
  const auto [stored, inserted] = table.insert(42, {}, 2.5);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*stored, 1.5);
  ASSERT_NE(table.find(42), nullptr);
  EXPECT_EQ(*table.find(42), 1.5);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(43), nullptr);
}

TEST(FlatTable, EqualHashesKeepDistinctKeysApart) {
  // Every key gets the same hash: a 64-bit collision between member masks
  // costs a longer probe, never another key's value — through growth too.
  FlatTable<int> table(2);
  constexpr std::uint64_t kHash = 0xdeadbeefcafef00dULL;
  const std::uint64_t keys = 8 * FlatTable<int>::kInitialCapacity;
  for (std::uint64_t i = 0; i < keys; ++i) {
    EXPECT_TRUE(table.insert(kHash, two_word_key(i), static_cast<int>(i)).second);
  }
  EXPECT_FALSE(table.insert(kHash, two_word_key(3), -1).second);
  for (std::uint64_t i = 0; i < keys; ++i) {
    const int* hit = table.find(kHash, two_word_key(i));
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(*hit, static_cast<int>(i));
  }
  EXPECT_EQ(table.find(kHash, two_word_key(keys)), nullptr);
}

TEST(FlatTable, HitsAndInsertsBelowTheGrowthThresholdAllocateNothing) {
  FlatTable<int> table(2);
  const std::vector<std::uint64_t> first = two_word_key(1);
  const std::vector<std::uint64_t> second = two_word_key(2);
  const std::vector<std::uint64_t> absent = two_word_key(3);
  const long before = g_allocations.load(std::memory_order_relaxed);
  const bool inserted_first = table.insert(mix64(1), first, 1).second;
  const bool inserted_second = table.insert(mix64(2), second, 2).second;
  const bool inserted_again = table.insert(mix64(1), first, 5).second;
  const int* hit = table.find(mix64(1), first);
  const int* miss = table.find(mix64(3), absent);
  const long allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_TRUE(inserted_first);
  EXPECT_TRUE(inserted_second);
  EXPECT_FALSE(inserted_again);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(miss, nullptr);
  EXPECT_EQ(table.capacity(), FlatTable<int>::kInitialCapacity);

  // A table started larger, as plan_costs starts its batch table, fills
  // half its slots before it first grows.
  FlatTable<int> sized(0, 1024);
  const long before_sized = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 512; ++i) sized.insert(mix64(i), {}, static_cast<int>(i));
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before_sized);
  EXPECT_EQ(sized.size(), 512u);
  EXPECT_EQ(sized.capacity(), 1024u);
  EXPECT_THROW(FlatTable<int>(0, 1000), PreconditionError);
}

// ---------- GroupCostCache ----------

TEST(GroupCostCache, InsertFindRoundTrip) {
  GroupCostCache cache;
  GroupCostCache::Entry entry;
  EXPECT_FALSE(cache.find(42, &entry));
  EXPECT_TRUE(cache.insert(42, {GroupCost{1.5, true}, false}));
  ASSERT_TRUE(cache.find(42, &entry));
  EXPECT_DOUBLE_EQ(entry.cost.cost_s, 1.5);
  EXPECT_FALSE(entry.quarantined);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GroupCostCache, DuplicateInsertKeepsFirstValue) {
  GroupCostCache cache;
  EXPECT_TRUE(cache.insert(7, {GroupCost{1.0, true}, false}));
  EXPECT_FALSE(cache.insert(7, {GroupCost{2.0, true}, false}));
  GroupCostCache::Entry entry;
  ASSERT_TRUE(cache.find(7, &entry));
  EXPECT_DOUBLE_EQ(entry.cost.cost_s, 1.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GroupCostCache, ConcurrentInsertFindIsCoherent) {
  GroupCostCache cache;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 4096;
  // Fingerprints are well mixed; key k's cost is k.
  auto fingerprint = [](std::uint64_t k) { return mix64(k); };
  // A shard is a fingerprint's low bits. Every shard's table must hold 8x
  // its initial capacity, so each doubles at least three times while the
  // other threads probe it.
  std::vector<std::size_t> per_shard(GroupCostCache::kShards, 0);
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    ++per_shard[fingerprint(k) & (GroupCostCache::kShards - 1)];
  }
  ASSERT_GE(*std::min_element(per_shard.begin(), per_shard.end()),
            8 * FlatTable<GroupCostCache::Entry>::kInitialCapacity);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &fingerprint, t] {
      for (std::uint64_t k = 1; k <= kKeys; ++k) {
        // Every key is inserted by every thread, and the threads disagree on
        // whether it is quarantined: which flag wins depends on the race.
        const bool quarantined = (k + static_cast<std::uint64_t>(t)) % 3 == 0;
        cache.insert(fingerprint(k), {GroupCost{static_cast<double>(k), true}, quarantined});
        GroupCostCache::Entry entry;
        if (cache.find(fingerprint(k + static_cast<std::uint64_t>(t)), &entry)) {
          // Entries are immutable: any visible value is the first insert's.
          EXPECT_DOUBLE_EQ(entry.cost.cost_s,
                           static_cast<double>(k + static_cast<std::uint64_t>(t)));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    GroupCostCache::Entry entry;
    ASSERT_TRUE(cache.find(fingerprint(k), &entry));
    EXPECT_DOUBLE_EQ(entry.cost.cost_s, static_cast<double>(k));
  }
  // The counters kept at insert equal a brute-force count of the entries
  // that won their races.
  std::size_t entries = 0;
  long quarantined = 0;
  for (std::uint64_t k = 0; k <= kKeys + kThreads; ++k) {
    GroupCostCache::Entry entry;
    if (!cache.find(fingerprint(k), &entry)) continue;
    ++entries;
    if (entry.quarantined) ++quarantined;
  }
  EXPECT_EQ(cache.size(), entries);
  EXPECT_EQ(cache.quarantined_count(), quarantined);
  EXPECT_GT(quarantined, 0);
}

// ---------- evaluation counter contract ----------

TEST(EvalEngine, PeekForceCounterContract) {
  // Every group query is one logical evaluation; the first query of a
  // member set is a model evaluation (miss), every later one a cache hit.
  EngineRig rig = motivating_rig();
  rig.objective.reset_counters();
  const std::vector<KernelId> group{rig.program.find_kernel("Kern_C"),
                                    rig.program.find_kernel("Kern_E")};

  const Objective::GroupCost first = rig.objective.group_cost(group);
  EXPECT_EQ(rig.objective.evaluations(), 1);
  EXPECT_EQ(rig.objective.model_evaluations(), 1);

  const Objective::GroupCost again = rig.objective.group_cost(group);
  EXPECT_DOUBLE_EQ(again.cost_s, first.cost_s);
  EXPECT_EQ(again.profitable, first.profitable);
  const Objective::CacheStats stats = rig.objective.cache_stats();
  EXPECT_EQ(stats.evaluations, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.incremental_hits, 0);
  EXPECT_EQ(stats.duplicate_misses, 0);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_NEAR(stats.hit_rate(), 0.5, 1e-12);

  // The provenance lookup reads the entry without moving any counter.
  EXPECT_DOUBLE_EQ(rig.objective.inspect_group_cost(group).cost_s, first.cost_s);
  const std::vector<KernelId> unseen{rig.program.find_kernel("Kern_A"),
                                     rig.program.find_kernel("Kern_B")};
  (void)rig.objective.inspect_group_cost(unseen);
  const Objective::CacheStats after = rig.objective.cache_stats();
  EXPECT_EQ(after.evaluations, 2);
  EXPECT_EQ(after.hits, 1);
  EXPECT_EQ(after.misses, 1);
  EXPECT_EQ(after.entries, 1u);  // the unseen group was not published
}

TEST(EvalEngine, QuarantinedEntriesHitTheCache) {
  // A faulting group is evaluated exactly once; repeats are cache hits that
  // return the same penalty cost (quarantine folded into the entry).
  EngineRig rig = motivating_rig();
  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 11});
  const std::vector<KernelId> group{rig.program.find_kernel("Kern_C"),
                                    rig.program.find_kernel("Kern_E")};
  rig.objective.reset_counters();
  const Objective::GroupCost first = rig.objective.group_cost(group);
  EXPECT_FALSE(first.profitable);
  EXPECT_EQ(rig.objective.faults(), 1);
  EXPECT_EQ(rig.objective.model_evaluations(), 1);

  const Objective::GroupCost again = rig.objective.group_cost(group);
  EXPECT_DOUBLE_EQ(again.cost_s, first.cost_s);
  EXPECT_EQ(rig.objective.faults(), 1);             // not re-evaluated
  EXPECT_EQ(rig.objective.model_evaluations(), 1);  // hit, not a miss
  const Objective::CacheStats stats = rig.objective.cache_stats();
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.hits, 1);
}

// ---------- batched population scoring ----------

TEST(EvalEngine, PlanCostsMatchesPerPlanBitForBit) {
  EngineRig rig = suite_rig(24);
  Rng rng(0xfeed);
  std::vector<FusionPlan> plans;
  for (int i = 0; i < 32; ++i) {
    plans.push_back(random_legal_plan(rig.checker, rng, 0.2 + 0.02 * i));
  }
  const std::vector<double> batched = rig.objective.plan_costs(plans);
  ASSERT_EQ(batched.size(), plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], rig.objective.plan_cost(plans[i])) << i;
  }
  // A second batched pass over a warm cache must agree too (pure reads).
  EXPECT_EQ(rig.objective.plan_costs(plans), batched);
}

TEST(EvalEngine, PlanCostsCountersMatchPerPlanSemantics) {
  EngineRig batched_rig = suite_rig(16);
  EngineRig serial_rig = suite_rig(16);
  Rng rng_a(0xabcd);
  Rng rng_b(0xabcd);
  std::vector<FusionPlan> plans_a, plans_b;
  for (int i = 0; i < 16; ++i) {
    plans_a.push_back(random_legal_plan(batched_rig.checker, rng_a, 0.5));
    plans_b.push_back(random_legal_plan(serial_rig.checker, rng_b, 0.5));
  }
  batched_rig.objective.reset_counters();
  serial_rig.objective.reset_counters();
  (void)batched_rig.objective.plan_costs(plans_a);
  for (const FusionPlan& plan : plans_b) (void)serial_rig.objective.plan_cost(plan);

  const Objective::CacheStats batched = batched_rig.objective.cache_stats();
  const Objective::CacheStats serial = serial_rig.objective.cache_stats();
  EXPECT_EQ(batched.evaluations, serial.evaluations);
  EXPECT_EQ(batched.hits, serial.hits);
  EXPECT_EQ(batched.misses, serial.misses);
  EXPECT_EQ(batched.entries, serial.entries);
  // Repeats of a member set within the batch resolve from the batch's own
  // table: exactly the queries beyond each fingerprint's first.
  std::set<std::uint64_t> distinct;
  for (const FusionPlan& plan : plans_a) {
    for (int g = 0; g < plan.num_groups(); ++g) {
      distinct.insert(Objective::group_fingerprint(plan.group(g)));
    }
  }
  EXPECT_EQ(batched.incremental_hits,
            batched.evaluations - static_cast<long>(distinct.size()));
  EXPECT_EQ(serial.incremental_hits, 0);
}

// ---------- HGGA determinism and counters ----------

HggaConfig small_hgga(std::uint64_t seed = 0x5eed) {
  HggaConfig config;
  config.population = 24;
  config.max_generations = 30;
  config.stall_generations = 30;
  config.seed = seed;
  return config;
}

void expect_same_result(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.best.groups(), b.best.groups());
  EXPECT_EQ(a.best_cost_s, b.best_cost_s);  // bit-identical, not just close
  EXPECT_EQ(a.generations, b.generations);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i], b.history[i]) << "generation " << i;
  }
}

TEST(EvalEngine, HggaDeterministicAcrossThreadCounts) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  EngineRig rig_single = suite_rig(16, 9);
  const SearchResult single = Hgga(rig_single.objective, small_hgga()).run();

  omp_set_num_threads(8);
  EngineRig rig_many = suite_rig(16, 9);
  const SearchResult many = Hgga(rig_many.objective, small_hgga()).run();
  omp_set_num_threads(saved);

  expect_same_result(single, many);
#else
  GTEST_SKIP() << "OpenMP not enabled";
#endif
}

TEST(EvalEngine, HggaCountersBalanceAcrossModes) {
  // evaluations == hits + misses, and plan_costs' in-batch resolutions (a
  // subset of the hits) engage: offspring share most of their groups.
  EngineRig rig = suite_rig(16, 5);
  (void)Hgga(rig.objective, small_hgga()).run();
  const Objective::CacheStats stats = rig.objective.cache_stats();
  EXPECT_EQ(stats.evaluations, stats.hits + stats.misses);
  EXPECT_GT(stats.incremental_hits, 0);
  EXPECT_LE(stats.incremental_hits, stats.hits);
  EXPECT_GT(stats.hit_rate(), 0.5);
  EXPECT_EQ(stats.delta_hits, 0);
  EXPECT_EQ(stats.delta_full_recosts, 0);
}

// ---------- golden pins: what every search method returns ----------
//
// Recorded from the five search methods before their costing paths were
// merged into one: plans, bitwise costs and evaluation counts must not move
// when a costing path changes, at any thread count. Greedy's pair table and
// polish's in-order pricing lowered only the logical evaluation counts of
// Greedy (226 -> 101, faulty 221 -> 100) and of the HGGA, whose final polish
// prices fewer groups (3248 -> 3046). Exhaustive runs on 8
// kernels, the others on the 16-kernel Table V program (seed 7).

enum class Method { Greedy, Hgga, Annealing, Exhaustive, Random };

SearchResult run_method(Method method, EngineRig& rig) {
  switch (method) {
    case Method::Greedy:
      return greedy_search(rig.objective);
    case Method::Hgga: {
      HggaConfig config = small_hgga();
      config.max_generations = 12;
      config.stall_generations = 12;
      return Hgga(rig.objective, config).run();
    }
    case Method::Annealing: {
      AnnealingConfig config;
      config.iterations = 3000;
      return annealing_search(rig.objective, config);
    }
    case Method::Exhaustive:
      return exhaustive_search(rig.objective);
    case Method::Random: {
      RandomSearchConfig config;
      config.samples = 400;
      return random_search(rig.objective, config);
    }
  }
  std::abort();
}

struct Pin {
  Method method;
  const char* plan;        ///< best.to_string()
  std::uint64_t cost_bits;  ///< bit pattern of best_cost_s
  long evaluations;
  long model_evaluations;
  long faults;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs `pin.method` at 1, 4 and 8 OpenMP threads (under 30% objective
/// fault injection when `faulty`) and checks every run against the pin.
void expect_pinned(const Pin& pin, bool faulty) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  const int thread_counts[] = {1, 4, 8};
#else
  const int thread_counts[] = {1};
#endif
  for (const int threads : thread_counts) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    std::optional<ScopedFaultInjection> arm;
    if (faulty) arm.emplace(FaultPlan{FaultSite::Objective, 0.3, 21});
    EngineRig rig = suite_rig(pin.method == Method::Exhaustive ? 8 : 16, 7);
    const SearchResult got = run_method(pin.method, rig);
    const int label = static_cast<int>(pin.method) * 100 + threads;
    EXPECT_EQ(got.best.to_string(), pin.plan) << label;
    EXPECT_EQ(bits(got.best_cost_s), pin.cost_bits) << label;
    EXPECT_EQ(got.evaluations, pin.evaluations) << label;
    EXPECT_EQ(got.model_evaluations, pin.model_evaluations) << label;
    EXPECT_EQ(rig.objective.faults(), pin.faults) << label;
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(CostingPins, AllMethodsMatchAcrossThreadCounts) {
  const Pin pins[] = {
      {Method::Greedy, "{0,1,2,3,4} {5,6,7,8,9,10,11} {12,13,14,15}",
       0x3f49eb3efacccb48ULL, 101, 98, 0},
      {Method::Hgga, "{0,1,2,3,6,7,12} {4,5} {8,9,10,11,13,14,15}",
       0x3f4874d25fb3175cULL, 3046, 375, 0},
      {Method::Annealing, "{0,1,2,3,4,5,6,8,9,14} {7,10,11,12,13,15}",
       0x3f4beac06a0b2d99ULL, 9593, 65, 0},
      {Method::Exhaustive, "{0,1,2,3,4,5,6,7}", 0x3f30dc4dbe0d3ec8ULL, 4140, 50, 0},
      {Method::Random, "{0} {1,2,3} {4,5,6,7,8,9,10} {11,12,13,14,15}",
       0x3f4c1bd91419561cULL, 3767, 390, 0},
  };
  for (const Pin& pin : pins) expect_pinned(pin, false);
}

TEST(CostingPins, FaultQuarantinedSearchesMatchAcrossThreadCounts) {
  // FaultInjector decisions are pure in (seed, site, key), so the same
  // groups fault in every run and quarantine at the same penalty cost.
  const Pin pins[] = {
      {Method::Greedy, "{0,1,2,3} {4} {5,6,7,8,9,10,11} {12,13,14,15}",
       0x3f4a8fd8eee6f554ULL, 100, 96, 26},
      {Method::Annealing, "{0,1,2,3,4,5,6} {7,8,9,10,11} {12,13,14,15}",
       0x3f493aeb8ec6601cULL, 10848, 86, 23},
  };
  for (const Pin& pin : pins) expect_pinned(pin, true);
}

// ---------- golden pins: the headline searches ----------
//
// SCALE-LES and HOMME as `kfc search` runs them by default: expanded under
// an unlimited budget, K20X, population 60, 300 generations, stall 90.
// Recorded before crossover's same-phase hosts, anchored cycle search and
// group-fingerprint diversity count; a change to what the search does, not
// only to how fast, moves one of these.

struct SearchPin {
  bool homme;  ///< else SCALE-LES
  std::uint64_t seed;
  const char* plan;  ///< best.to_string()
  int generations;
  long evaluations;
  long model_evaluations;
  std::vector<int> distinct_plans;  ///< GenerationStats::distinct_plans, per generation
};

void expect_pinned(const SearchPin& pin) {
  const PlanContext ctx(pin.homme ? homme() : scale_les(), DeviceSpec::k20x());
  DriverConfig config;
  config.hgga.population = 60;
  config.hgga.max_generations = 300;
  config.hgga.stall_generations = 90;
  config.hgga.seed = pin.seed;
  const SearchResult got = SearchDriver(ctx.objective, config).run();
  const std::string label = std::string(pin.homme ? "homme" : "scale-les") + " seed " +
                            std::to_string(pin.seed);
  EXPECT_EQ(got.best.to_string(), pin.plan) << label;
  EXPECT_EQ(got.generations, pin.generations) << label;
  EXPECT_EQ(got.evaluations, pin.evaluations) << label;
  EXPECT_EQ(got.model_evaluations, pin.model_evaluations) << label;
  std::vector<int> distinct;
  for (const GenerationStats& stats : got.trace) distinct.push_back(stats.distinct_plans);
  EXPECT_EQ(distinct, pin.distinct_plans) << label;
}

TEST(SearchPins, ScaleLesAtKfcDefaults) {
  const SearchPin pins[] = {
      {false, 7,
       "{0,1,2,3,4,5,7} {6,10,11,13,15,28,32} {8,14,20,23} {9,12,22,30} "
       "{16,17,18,25,26,27,31} {19,21,24} {29,33,34,35} {36,37,40,45,55} "
       "{38,47,48,52,53,56,59} {39,41} {42,43,44,46,49,54,57} {50,63,70} {51,60} "
       "{58,61,62,64,65} {66,67,69} {68} {71} {72,76,83,84,88,90} {73,74,80} "
       "{75,82,94,97,100,101} {77,87,96,98,99,104} {78,79,81,85,86,89,91,95} "
       "{92,93,102,103,105,106} {107,108,110,112,119,120} {109,115,117,124,127} "
       "{111,113,116,122,129,130} {114,118,123,125,131} {121} "
       "{126,128,132,133,134,139} {135,136,137,138,140} {141}",
       117, 354826, 12782,
       {56, 59, 55, 54, 48, 54, 54, 53, 52, 48, 50, 54, 56, 55, 49, 51, 47, 50, 42, 42,
        50, 49, 48, 50, 42, 36, 29, 16, 10, 11, 13, 10, 12, 14, 14, 10, 6,  12, 7,  3,
        10, 13, 8,  12, 6,  6,  12, 10, 9,  9,  8,  8,  12, 11, 12, 9,  12, 11, 13, 8,
        6,  12, 12, 10, 6,  8,  6,  13, 11, 9,  8,  8,  11, 8,  8,  7,  10, 10, 8,  7,
        10, 8,  11, 6,  8,  8,  9,  7,  7,  11, 7,  8,  7,  6,  5,  8,  10, 9,  13, 9,
        10, 9,  9,  15, 8,  6,  7,  9,  12, 12, 11, 6,  8,  7,  9,  7,  8}},
      {false, 9,
       "{0,8,9,12,17,22,25,28,30,32} {1,2,3,4,5,6,7,13,19} {10,11,15,34,35} "
       "{14,16,20,23,26,31} {18,21,24,27,29,33} {36,37,40,45,55} {38,47,48,52,53,68} "
       "{39,41,51} {42,43,44,46,49,54,57} {50,63,70} {56,58,61,66,67,69} "
       "{59,60,62,64,65} {71,77,78,79,81,87} {72,73,74,76,80} {75,82,94,100,101} "
       "{83,84,88,90} {85,86,89,91,95,97} {92,93,102,103,105,106} {96,98,99,104} "
       "{107,109,115,117,124,127} {108,111,113,114,119,120} {110,112,121,138} {116} "
       "{118} {122,129,130,135,136,137} {123,125,131,140,141} "
       "{126,128,132,133,134,139}",
       119, 298822, 10321,
       {59, 55, 52, 55, 57, 57, 52, 50, 50, 51, 51, 51, 50, 48, 47, 43, 43, 30, 37, 46,
        44, 43, 31, 23, 25, 16, 18, 12, 9,  13, 12, 16, 10, 8,  10, 8,  9,  8,  10, 9,
        11, 10, 5,  11, 8,  11, 9,  11, 4,  8,  11, 13, 13, 8,  11, 11, 14, 12, 10, 6,
        10, 12, 9,  8,  11, 9,  5,  9,  8,  9,  12, 6,  7,  10, 7,  11, 8,  7,  6,  10,
        8,  7,  7,  8,  7,  6,  8,  13, 5,  10, 18, 7,  5,  7,  8,  7,  10, 8,  9,  8,
        9,  10, 9,  9,  5,  5,  7,  6,  8,  10, 8,  9,  9,  8,  12, 6,  7,  12, 11}},
  };
  for (const SearchPin& pin : pins) expect_pinned(pin);
}

TEST(SearchPins, HommeAtKfcDefaults) {
  const char* plan =
      "{0,1,2,4} {3} {5,6,7,8} {9,10,11,12} {13} {14} {15} {16,17} {18,19} {20,21} "
      "{22} {23,24,25} {26,27,28,29,30} {31,32,33,34} {35} {36,38} {37} "
      "{39,40,41,42}";
  const SearchPin pins[] = {
      {true, 7, plan, 95, 101639, 109,
       {52, 58, 49, 46, 31, 21, 13, 8, 5, 6, 4, 5, 5, 10, 7, 4, 5, 3, 8, 6, 5, 6, 3, 5,
        3,  3,  3,  6,  6,  6,  9,  4, 8, 7, 3, 7, 5, 7,  7, 5, 3, 6, 5, 7, 2, 8, 6, 4,
        4,  5,  7,  10, 7,  6,  7,  2, 7, 6, 4, 4, 6, 6,  3, 5, 7, 4, 6, 8, 4, 6, 7, 7,
        4,  10, 4,  5,  7,  5,  4,  7, 4, 8, 7, 5, 6, 4,  4, 5, 6, 3, 4, 6, 4, 4, 5}},
      {true, 9, plan, 95, 101586, 109,
       {56, 54, 52, 47, 37, 16, 7, 9, 4, 5, 9, 7, 6, 6, 3, 5, 7, 3, 7, 4, 5, 6, 7, 4,
        5,  8,  7,  5,  3,  8,  7, 5, 5, 6, 4, 8, 4, 6, 4, 6, 7, 7, 4, 7, 7, 6, 7, 6,
        4,  5,  5,  4,  7,  7,  7, 10, 6, 8, 4, 4, 3, 8, 7, 5, 5, 6, 4, 4, 5, 8, 6, 8,
        8,  4,  4,  5,  5,  7,  6, 7, 6, 7, 4, 6, 7, 5, 6, 5, 4, 4, 4, 4, 4, 5, 5}},
  };
  for (const SearchPin& pin : pins) expect_pinned(pin);
}

// ---------- descriptor hand-off: check_group -> group_cost ----------

/// Sorted fused groups the search prices: random pair unions of a random
/// legal plan's groups and random single-kernel moves into them, legal or
/// not, each once. The plans come from a checker of their own, so the
/// caller's checker has seen none of the groups.
std::vector<std::vector<KernelId>> handoff_groups(const Program& program, std::uint64_t seed) {
  const LegalityChecker checker(program, DeviceSpec::k20x());
  Rng rng(seed);
  std::set<std::vector<KernelId>> seen;
  std::vector<std::vector<KernelId>> out;
  auto add = [&](std::vector<KernelId> g) {
    std::sort(g.begin(), g.end());
    if (seen.insert(g).second) out.push_back(std::move(g));
  };
  for (const double aggressiveness : {0.3, 0.6}) {
    const FusionPlan plan = random_legal_plan(checker, rng, aggressiveness);
    const auto groups = static_cast<std::uint64_t>(plan.num_groups());
    for (int i = 0; i < 150; ++i) {
      const int a = static_cast<int>(rng.next_below(groups));
      int b = static_cast<int>(rng.next_below(groups - 1));
      if (b >= a) ++b;
      std::vector<KernelId> merged(plan.group(a).begin(), plan.group(a).end());
      merged.insert(merged.end(), plan.group(b).begin(), plan.group(b).end());
      add(std::move(merged));
      const std::span<const KernelId> from = plan.group(a);
      std::vector<KernelId> moved(plan.group(b).begin(), plan.group(b).end());
      moved.push_back(from[rng.next_below(from.size())]);
      add(std::move(moved));
    }
  }
  return out;
}

/// Every counter an objective keeps.
std::vector<long> counters_of(const Objective& objective) {
  const Objective::CacheStats s = objective.cache_stats();
  return {s.evaluations,      s.hits,        s.misses,
          s.incremental_hits, s.duplicate_misses, s.quarantined,
          static_cast<long>(s.entries), objective.faults(),
          objective.model_evaluations()};
}

TEST(DescriptorHandOff, PricingFromTheCheckersDescriptorMatchesAFreshBuild) {
  // Twin fresh objectives on one checker: one prices each legal group from
  // the descriptor check_group handed over, the other builds its own.
  for (const bool faulty : {false, true}) {
    std::optional<ScopedFaultInjection> arm;
    if (faulty) arm.emplace(FaultPlan{FaultSite::Objective, 0.3, 21});
    EngineRig rig = suite_rig(40, 5);
    const Objective twin(rig.checker, rig.model, rig.sim);
    long handed = 0;
    for (const std::vector<KernelId>& g : handoff_groups(rig.program, 91)) {
      LaunchDescriptor built;
      if (rig.checker.check_group(g, &built) != LegalityVerdict::Ok) continue;
      ASSERT_EQ(built.members, g);  // every group is fresh: the memo missed
      ++handed;
      const Objective::GroupCost got = rig.objective.group_cost(g, &built);
      const Objective::GroupCost want = twin.group_cost(g);
      EXPECT_EQ(bits(got.cost_s), bits(want.cost_s)) << faulty;
      EXPECT_EQ(got.profitable, want.profitable) << faulty;
    }
    EXPECT_GT(handed, 50) << faulty;
    EXPECT_EQ(counters_of(rig.objective), counters_of(twin)) << faulty;
    if (faulty) {
      EXPECT_GT(rig.objective.faults(), 0);
    }
  }
}

TEST(DescriptorHandOff, ADescriptorOfOtherMembersIsIgnored) {
  for (const bool faulty : {false, true}) {
    std::optional<ScopedFaultInjection> arm;
    if (faulty) arm.emplace(FaultPlan{FaultSite::Objective, 0.3, 21});
    EngineRig rig = suite_rig(40, 5);
    const Objective twin(rig.checker, rig.model, rig.sim);
    const std::vector<std::vector<KernelId>> groups = handoff_groups(rig.program, 92);
    ASSERT_GT(groups.size(), 2u);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      // The next group's descriptor, or this group's with a member missing.
      LaunchDescriptor other = rig.checker.builder().build(groups[(i + 1) % groups.size()]);
      if (i % 2 == 1) {
        other = rig.checker.builder().build(groups[i]);
        other.members.pop_back();
      }
      const Objective::GroupCost got = rig.objective.group_cost(groups[i], &other);
      const Objective::GroupCost want = twin.group_cost(groups[i]);
      EXPECT_EQ(bits(got.cost_s), bits(want.cost_s)) << i;
      EXPECT_EQ(got.profitable, want.profitable) << i;
    }
    EXPECT_EQ(counters_of(rig.objective), counters_of(twin)) << faulty;
  }
}

TEST(DescriptorHandOff, CheckingThenPricingAFreshGroupBuildsItOnce) {
  for (const bool faulty : {false, true}) {
    std::optional<ScopedFaultInjection> arm;
    if (faulty) arm.emplace(FaultPlan{FaultSite::Objective, 0.3, 21});
    EngineRig rig = suite_rig(40, 5);
    const FusedKernelBuilder& builder = rig.checker.builder();
    long priced = 0;
    for (const std::vector<KernelId>& g : handoff_groups(rig.program, 93)) {
      const long before = builder.fused_builds();
      LaunchDescriptor built;
      if (rig.checker.check_group(g, &built) != LegalityVerdict::Ok) continue;
      (void)rig.objective.group_cost(g, &built);
      EXPECT_EQ(builder.fused_builds() - before, 1) << faulty;
      ++priced;
    }
    EXPECT_GT(priced, 50) << faulty;
    // Without the hand-off, the same sequence builds every group twice.
    EngineRig bare = suite_rig(40, 5);
    long twice = 0;
    for (const std::vector<KernelId>& g : handoff_groups(bare.program, 93)) {
      if (bare.checker.check_group(g) != LegalityVerdict::Ok) continue;
      (void)bare.objective.group_cost(g);
      ++twice;
    }
    EXPECT_EQ(twice, priced);
    const long faults = faulty ? bare.objective.faults() : 0;
    // A faulted group throws before its build, so it is built only once.
    EXPECT_EQ(bare.checker.builder().fused_builds(), 2 * twice - faults) << faulty;
  }
}

// ---------- population arena ----------

TEST(PopulationArena, SteadyStateGenerationsAllocateNothing) {
  // After warm-up, a generation of elite-style copies into recycled
  // offspring slots plus a promote must perform zero heap allocations:
  // FusionPlan's SoA vectors copy-assign into retained capacity, and
  // promote_offspring only swaps the pools.
  EngineRig rig = suite_rig(16, 13);
  Rng rng(0x51);
  constexpr int kPop = 12;
  Population arena;
  std::vector<Individual>& population = arena.individuals();
  for (int i = 0; i < kPop; ++i) {
    Individual& slot = arena.next_offspring();
    slot.plan = random_legal_plan(rig.checker, rng, 0.5);
    slot.cost = rig.objective.plan_cost(slot.plan);
  }
  arena.promote_offspring();
  ASSERT_EQ(population.size(), static_cast<std::size_t>(kPop));
  // Two warm-up generations grow both pool buffers to capacity.
  for (int gen = 0; gen < 2; ++gen) {
    for (int i = 0; i < kPop; ++i) arena.next_offspring() = population[i];
    arena.promote_offspring();
  }
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int gen = 0; gen < 4; ++gen) {
    for (int i = 0; i < kPop; ++i) arena.next_offspring() = population[i];
    arena.promote_offspring();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  // The population reference stayed valid and intact across all promotes.
  EXPECT_EQ(population.size(), static_cast<std::size_t>(kPop));
}

}  // namespace
}  // namespace kf
