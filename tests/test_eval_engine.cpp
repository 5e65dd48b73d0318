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

#include "apps/motivating_example.hpp"
#include "apps/testsuite.hpp"
#include "model/proposed_model.hpp"
#include "search/annealing.hpp"
#include "search/exhaustive.hpp"
#include "search/greedy.hpp"
#include "search/group_cache.hpp"
#include "search/hgga.hpp"
#include "search/population.hpp"
#include "search/random_search.hpp"
#include "util/fault_injection.hpp"

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

  explicit EngineRig(Program p, Objective::Options options = {})
      : program(std::move(p)),
        checker(program, device),
        objective(checker, model, sim, options) {}
};

EngineRig motivating_rig(Objective::Options options = {}) {
  return EngineRig(motivating_example(GridDims{256, 128, 16}), options);
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

// ---------- GroupCostCache ----------

TEST(GroupCostCache, InsertFindRoundTrip) {
  GroupCostCache cache(8);
  EXPECT_EQ(cache.shards(), 8);
  GroupCostCache::Entry entry;
  EXPECT_FALSE(cache.find(42, &entry));
  EXPECT_TRUE(cache.insert(42, {GroupCost{1.5, true}, false}));
  ASSERT_TRUE(cache.find(42, &entry));
  EXPECT_DOUBLE_EQ(entry.cost.cost_s, 1.5);
  EXPECT_FALSE(entry.quarantined);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GroupCostCache, DuplicateInsertKeepsFirstValue) {
  GroupCostCache cache(4);
  EXPECT_TRUE(cache.insert(7, {GroupCost{1.0, true}, false}));
  EXPECT_FALSE(cache.insert(7, {GroupCost{2.0, true}, false}));
  GroupCostCache::Entry entry;
  ASSERT_TRUE(cache.find(7, &entry));
  EXPECT_DOUBLE_EQ(entry.cost.cost_s, 1.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GroupCostCache, ShardCountRoundsUpToPowerOfTwo) {
  GroupCostCache cache(5);
  EXPECT_EQ(cache.shards(), 8);
  GroupCostCache one(1);
  EXPECT_EQ(one.shards(), 1);
}

TEST(GroupCostCache, QuarantinedKeysAreSorted) {
  GroupCostCache cache(4);
  cache.insert(99, {GroupCost{1.0, false}, true});
  cache.insert(3, {GroupCost{1.0, false}, true});
  cache.insert(50, {GroupCost{1.0, true}, false});
  EXPECT_EQ(cache.quarantined_count(), 2);
  const std::vector<std::uint64_t> keys = cache.quarantined_keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], 3u);
  EXPECT_EQ(keys[1], 99u);
}

TEST(GroupCostCache, ConcurrentInsertFindIsCoherent) {
  GroupCostCache cache(16);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (std::uint64_t k = 1; k <= kKeys; ++k) {
        cache.insert(k, {GroupCost{static_cast<double>(k), true}, false});
        GroupCostCache::Entry entry;
        if (cache.find(k + static_cast<std::uint64_t>(t), &entry)) {
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
    ASSERT_TRUE(cache.find(k, &entry));
    EXPECT_DOUBLE_EQ(entry.cost.cost_s, static_cast<double>(k));
  }
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

TEST(EvalEngine, QuarantineIsCachedEvenWithCachingDisabled) {
  Objective::Options options;
  options.enable_cache = false;
  EngineRig rig = motivating_rig(options);
  ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 1.0, 11});
  const std::vector<KernelId> group{rig.program.find_kernel("Kern_C"),
                                    rig.program.find_kernel("Kern_E")};
  (void)rig.objective.group_cost(group);
  (void)rig.objective.group_cost(group);
  EXPECT_EQ(rig.objective.faults(), 1);  // quarantine contract holds
  EXPECT_EQ(rig.objective.quarantined_fingerprints().size(), 1u);
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
// when a costing path changes, at any thread count. Exhaustive runs on 8
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
       0x3f49eb3efacccb48ULL, 226, 98, 0},
      {Method::Hgga, "{0,1,2,3,6,7,12} {4,5} {8,9,10,11,13,14,15}",
       0x3f4874d25fb3175cULL, 3248, 375, 0},
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
       0x3f4a8fd8eee6f554ULL, 221, 96, 26},
      {Method::Annealing, "{0,1,2,3,4,5,6} {7,8,9,10,11} {12,13,14,15}",
       0x3f493aeb8ec6601cULL, 10848, 86, 23},
  };
  for (const Pin& pin : pins) expect_pinned(pin, true);
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
