// Evaluation-engine throughput: sharded cache + batched population scoring.
//
// The search spends almost all of its time scoring plans against the
// group-cost cache (the paper's 5.4e6-evaluation runs are >99% cache
// hits), so the hit path is the figure of merit. This bench replays a
// fixed pool of random legal plans over a warm cache through two engines:
//
//   sharded  Objective::plan_cost — allocation-free commutative
//            fingerprint, one shared lock on one cache shard per hit;
//   batched  Objective::plan_costs — whole-pool scoring: probe,
//            deduplicate unseen fingerprints, evaluate only those, then
//            pure cache reads.
//
// Both produce bit-identical per-plan costs (asserted). The report is
// group evaluations per second plus the sharded cache's statistics. The
// JSON mirror (BENCH_eval_throughput.json) feeds the CI perf-smoke job,
// which fails below a committed evals/s floor: a global lock or a
// per-query allocation on the hit path drops throughput 2-4x.
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench_common.hpp"

namespace kf::bench {
namespace {

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

int run() {
  print_header("Evaluation-engine throughput: sharded cache + batched scoring",
               "the evaluation-engine redesign; cf. paper Table VI eval counts");

  TestSuiteConfig suite;
  suite.kernels = 64;
  suite.arrays = 128;
  suite.seed = 7;
  PlanContext ctx(make_testsuite_program(suite), DeviceSpec::k20x());

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
  const bool identical = sharded_phase.costs == batched_phase.costs;

  TextTable table({"engine", "evals/s", "plans/s", "rounds"});
  for (const Phase* phase : {&sharded_phase, &batched_phase}) {
    table.add(phase->name, fixed(phase->evals_per_s / 1e6, 2) + "M",
              fixed(phase->plans_per_s / 1e3, 1) + "k", phase->rounds);
  }
  std::cout << table;

  std::cout << "\nper-plan costs bit-identical across engines: "
            << (identical ? "yes" : "NO — BUG") << "\n"
            << "sharded cache: " << stats.entries << " entries / " << GroupCostCache::kShards
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
  doc.set("sharded_evals_per_s", sharded_phase.evals_per_s);
  doc.set("batched_evals_per_s", batched_phase.evals_per_s);
  doc.set("cache_hit_rate", stats.hit_rate());
  doc.set("cache_entries", static_cast<long>(stats.entries));
  doc.set("cache_shards", static_cast<long>(GroupCostCache::kShards));
  doc.set("duplicate_misses", stats.duplicate_misses);
  doc.set("shard_contention", stats.shard_contention);
  doc.set("identical_costs", identical);
  write_bench_metrics("eval_throughput", doc);

  if (!identical) {
    std::cerr << "FAIL: engines disagree on plan costs\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace kf::bench

int main() { return kf::bench::run(); }
