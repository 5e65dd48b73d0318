// Evaluation-engine throughput: sharded cache + batched population scoring
// vs the pre-PR global-mutex cache.
//
// The search spends almost all of its time scoring plans against the
// group-cost cache (the paper's 5.4e6-evaluation runs are >99% cache
// hits), so the hit path is the figure of merit. This bench replays a
// fixed pool of random legal plans over a warm cache through three
// engines:
//
//   legacy-mutex  in-bench replica of the pre-PR path: copy+sort
//                 fingerprint, quarantine check and lookup each behind one
//                 global std::mutex (2 acquisitions per hit, 3 per miss);
//   sharded       Objective::plan_cost — allocation-free commutative
//                 fingerprint, one shared lock on one cache shard per hit;
//   batched       Objective::plan_costs — whole-pool scoring: probe,
//                 deduplicate unseen fingerprints, evaluate only those,
//                 then pure cache reads.
//
// All three produce bit-identical per-plan costs (asserted). The report is
// group evaluations per second plus the sharded cache's statistics. The
// JSON mirror (BENCH_eval_throughput.json) feeds the CI perf-smoke job,
// which fails on a large regression vs the committed baseline.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.hpp"

namespace kf::bench {
namespace {

/// The seed's fingerprint: allocate, sort, sequential mix.
std::uint64_t legacy_fingerprint(std::span<const KernelId> group) {
  std::vector<KernelId> sorted(group.begin(), group.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (KernelId k : sorted) h = mix64(h ^ (static_cast<std::uint64_t>(k) + 0x9e37));
  return h;
}

/// Replica of the pre-PR cache path. Model evaluations are delegated to an
/// uncached Objective so the miss cost is identical to the real engines' —
/// only the per-query overhead (fingerprint + locking) differs.
struct LegacyMutexEngine {
  explicit LegacyMutexEngine(const Objective& uncached) : objective(uncached) {}

  GroupCost group_cost(std::span<const KernelId> group) {
    evaluations.fetch_add(1, std::memory_order_relaxed);  // as the seed did
    const std::uint64_t key = legacy_fingerprint(group);
    {
      std::lock_guard<std::mutex> lock(mutex);  // acquisition 1: quarantine
      if (quarantined.count(key) != 0) return GroupCost{};
    }
    {
      std::lock_guard<std::mutex> lock(mutex);  // acquisition 2: lookup
      const auto it = cache.find(key);
      if (it != cache.end()) return it->second;
    }
    const GroupCost cost = objective.group_cost(group);
    {
      std::lock_guard<std::mutex> lock(mutex);  // acquisition 3: insert
      cache.emplace(key, cost);
    }
    return cost;
  }

  double plan_cost(const FusionPlan& plan) {
    double total = 0.0;
    for (int g = 0; g < plan.num_groups(); ++g) {
      total += group_cost(plan.group(g)).cost_s;
    }
    return total;
  }

  const Objective& objective;
  std::atomic<long> evaluations{0};
  std::mutex mutex;
  std::unordered_map<std::uint64_t, GroupCost> cache;
  std::unordered_set<std::uint64_t> quarantined;
};

struct Phase {
  std::string name;
  double evals_per_s = 0.0;
  double plans_per_s = 0.0;
  long rounds = 0;
  std::vector<double> costs;  ///< per-plan costs of the last round
};

/// Runs score_round (which must fill `costs`) warm, then timed rounds
/// until `target_s` has elapsed (at least 3 rounds).
template <typename Fn>
Phase run_phase(const std::string& name, long groups_per_round,
                std::size_t plans_per_round, double target_s, Fn&& score_round) {
  Phase phase;
  phase.name = name;
  score_round(phase.costs);  // warm the engine's cache
  Stopwatch watch;
  while (watch.elapsed_s() < target_s || phase.rounds < 3) {
    score_round(phase.costs);
    ++phase.rounds;
  }
  const double secs = watch.elapsed_s();
  phase.evals_per_s = static_cast<double>(groups_per_round * phase.rounds) / secs;
  phase.plans_per_s =
      static_cast<double>(plans_per_round) * static_cast<double>(phase.rounds) / secs;
  return phase;
}

int run(int argc, char** argv) {
  double min_speedup = 0.0;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0) min_speedup = std::atof(argv[i + 1]);
  }

  print_header("Evaluation-engine throughput: sharded cache + batched scoring",
               "the evaluation-engine redesign; cf. paper Table VI eval counts");

  TestSuiteConfig suite;
  suite.kernels = 64;
  suite.arrays = 128;
  suite.seed = 7;
  PlanContext ctx(make_testsuite_program(suite), DeviceSpec::k20x());

  // The legacy engine computes misses through an uncached objective so its
  // only advantage-relevant difference is the query overhead itself.
  Objective::Options uncached;
  uncached.enable_cache = false;
  Objective legacy_objective(ctx.checker, *ctx.model, ctx.simulator, uncached);

  const std::size_t pool_size = small_scale() ? 48 : 192;
  const double target_s = small_scale() ? 0.15 : 0.6;
  Rng rng(0xbe7c);
  std::vector<FusionPlan> pool;
  pool.reserve(pool_size);
  long groups_per_round = 0;
  for (std::size_t i = 0; i < pool_size; ++i) {
    const double aggressiveness =
        0.2 + 0.7 * static_cast<double>(i) / static_cast<double>(pool_size);
    pool.push_back(random_legal_plan(ctx.checker, rng, aggressiveness));
    groups_per_round += pool.back().num_groups();
  }

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  std::cout << "\n64-kernel test-suite program, " << pool_size
            << " random legal plans (" << groups_per_round
            << " group queries per round), " << threads << " thread(s)\n\n";

  LegacyMutexEngine legacy(legacy_objective);
  const Phase legacy_phase = run_phase(
      "legacy-mutex", groups_per_round, pool.size(), target_s,
      [&](std::vector<double>& costs) {
        costs.assign(pool.size(), 0.0);
#pragma omp parallel for schedule(dynamic)
        for (std::size_t i = 0; i < pool.size(); ++i) {
          costs[i] = legacy.plan_cost(pool[i]);
        }
      });

  ctx.objective.reset_counters();
  const Phase sharded_phase = run_phase(
      "sharded", groups_per_round, pool.size(), target_s,
      [&](std::vector<double>& costs) {
        costs.assign(pool.size(), 0.0);
#pragma omp parallel for schedule(dynamic)
        for (std::size_t i = 0; i < pool.size(); ++i) {
          costs[i] = ctx.objective.plan_cost(pool[i]);
        }
      });

  const Phase batched_phase = run_phase(
      "batched", groups_per_round, pool.size(), target_s,
      [&](std::vector<double>& costs) { costs = ctx.objective.plan_costs(pool); });

  const Objective::CacheStats stats = ctx.objective.cache_stats();
  const bool identical = legacy_phase.costs == sharded_phase.costs &&
                         sharded_phase.costs == batched_phase.costs;
  const double speedup_sharded = sharded_phase.evals_per_s / legacy_phase.evals_per_s;
  const double speedup_batched = batched_phase.evals_per_s / legacy_phase.evals_per_s;

  TextTable table({"engine", "evals/s", "plans/s", "rounds", "speedup"});
  table.add(legacy_phase.name, fixed(legacy_phase.evals_per_s / 1e6, 2) + "M",
            fixed(legacy_phase.plans_per_s / 1e3, 1) + "k", legacy_phase.rounds,
            "1.00x");
  table.add(sharded_phase.name, fixed(sharded_phase.evals_per_s / 1e6, 2) + "M",
            fixed(sharded_phase.plans_per_s / 1e3, 1) + "k", sharded_phase.rounds,
            fixed(speedup_sharded, 2) + "x");
  table.add(batched_phase.name, fixed(batched_phase.evals_per_s / 1e6, 2) + "M",
            fixed(batched_phase.plans_per_s / 1e3, 1) + "k", batched_phase.rounds,
            fixed(speedup_batched, 2) + "x");
  std::cout << table;

  std::cout << "\nper-plan costs bit-identical across engines: "
            << (identical ? "yes" : "NO — BUG") << "\n"
            << "sharded cache: " << stats.entries << " entries / " << stats.shards
            << " shards, hit rate " << fixed(100.0 * stats.hit_rate(), 2)
            << "%, duplicate misses " << stats.duplicate_misses
            << ", lock waits " << stats.shard_contention << "\n";

  JsonValue doc = JsonValue::object();
  doc.set("schema", "kf-bench-metrics/v1");
  doc.set("bench", "eval_throughput");
  doc.set("program", testsuite_id(suite));
  doc.set("threads", static_cast<long>(threads));
  doc.set("plans", static_cast<long>(pool_size));
  doc.set("groups_per_round", groups_per_round);
  doc.set("legacy_evals_per_s", legacy_phase.evals_per_s);
  doc.set("sharded_evals_per_s", sharded_phase.evals_per_s);
  doc.set("batched_evals_per_s", batched_phase.evals_per_s);
  doc.set("speedup_sharded", speedup_sharded);
  doc.set("speedup_batched", speedup_batched);
  doc.set("cache_hit_rate", stats.hit_rate());
  doc.set("cache_entries", static_cast<long>(stats.entries));
  doc.set("cache_shards", static_cast<long>(stats.shards));
  doc.set("duplicate_misses", stats.duplicate_misses);
  doc.set("shard_contention", stats.shard_contention);
  doc.set("identical_costs", identical);
  write_bench_metrics("eval_throughput", doc);

  if (!identical) {
    std::cerr << "FAIL: engines disagree on plan costs\n";
    return 1;
  }
  if (min_speedup > 0.0 &&
      std::max(speedup_sharded, speedup_batched) < min_speedup) {
    std::cerr << "FAIL: best speedup "
              << fixed(std::max(speedup_sharded, speedup_batched), 2)
              << "x below required " << fixed(min_speedup, 2) << "x\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kf::bench

int main(int argc, char** argv) { return kf::bench::run(argc, argv); }
