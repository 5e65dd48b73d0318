#include "search/hgga.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>

#include "search/checkpoint.hpp"
#include "search/driver.hpp"
#include "search/population.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"

namespace kf {

namespace {

/// Per-generation telemetry fan-out: metrics series, one "generation" trace
/// event, and the --progress heartbeat. Only called when telemetry is active.
void note_generation(const Telemetry& t, int gen, const GenerationStats& s,
                     double gen_s, long total_evals, long gen_evals,
                     double elapsed_s, int population, int stall,
                     const Objective::CacheStats& cache) {
  const double evals_per_s = gen_s > 0.0 ? static_cast<double>(gen_evals) / gen_s : 0.0;
  if (t.metrics != nullptr) {
    t.metrics->count("search.generations");
    t.metrics->count("search.crossovers", s.crossovers);
    t.metrics->count("search.crossover_improved", s.crossover_improved);
    t.metrics->count("search.mutations", s.mutations);
    t.metrics->gauge("search.best_cost_s", s.best_cost_s);
    t.metrics->gauge("search.mean_cost_s", s.mean_cost_s);
    t.metrics->gauge("search.distinct_plans", s.distinct_plans);
    t.metrics->gauge("search.mean_groups", s.mean_groups);
    t.metrics->observe("search.generation_s", gen_s);
    t.metrics->observe("search.evals_per_s", evals_per_s);
    // Evaluation-engine health: cumulative, so the last generation's gauge
    // is the run's final hit rate (also in the metrics "run" block).
    t.metrics->gauge("objective.cache.hit_rate", cache.hit_rate());
    t.metrics->gauge("objective.cache.entries", static_cast<double>(cache.entries));
    t.metrics->gauge("objective.cache.incremental_hits",
                     static_cast<double>(cache.incremental_hits));
    t.metrics->gauge("objective.cache.duplicate_misses",
                     static_cast<double>(cache.duplicate_misses));
    t.metrics->gauge("objective.cache.shard_contention",
                     static_cast<double>(cache.shard_contention));
  }
  if (t.wants_trace()) {
    t.trace->emit("generation", [&](TraceEvent& e) {
      e.num("gen", gen)
          .num("best_cost_s", s.best_cost_s)
          .num("mean_cost_s", s.mean_cost_s)
          .num("worst_cost_s", s.worst_cost_s)
          .num("distinct_plans", s.distinct_plans)
          .num("mean_groups", s.mean_groups)
          .num("crossovers", s.crossovers)
          .num("crossover_improved", s.crossover_improved)
          .num("mutations", s.mutations)
          .num("stall", stall)
          .num("evaluations", static_cast<double>(total_evals))
          .num("evals_per_s", evals_per_s)
          .num("elapsed_s", elapsed_s);
    });
  }
  if (t.wants_progress() && (gen + 1) % t.progress_every == 0) {
    std::ostream& os = t.progress != nullptr ? *t.progress : std::cerr;
    os << strprintf(
              "[gen %4d] best %.4e s  mean %.4e s  distinct %d/%d  stall %d  "
              "%.0f evals/s",
              gen, s.best_cost_s, s.mean_cost_s, s.distinct_plans, population,
              stall, evals_per_s)
       << std::endl;
  }
}

}  // namespace

std::string SearchResult::trace_csv() const {
  std::ostringstream os;
  os << "generation,best_cost_s,mean_cost_s,worst_cost_s,distinct_plans,"
        "mean_groups,crossovers,crossover_improved,mutations\n";
  for (std::size_t g = 0; g < trace.size(); ++g) {
    const GenerationStats& s = trace[g];
    os << g << ',' << s.best_cost_s << ',' << s.mean_cost_s << ','
       << s.worst_cost_s << ',' << s.distinct_plans << ',' << s.mean_groups
       << ',' << s.crossovers << ',' << s.crossover_improved << ','
       << s.mutations << '\n';
  }
  return os.str();
}

int local_polish(const Objective& objective, FusionPlan& plan, double* cost_out,
                 const Telemetry* telemetry) {
  const LegalityChecker& checker = objective.checker();
  SpanTracer::Scope polish_span = scoped_span(telemetry, "local_polish");
  const bool provenance = telemetry != nullptr && telemetry->wants_decisions();
  int edits = 0;
  double cost = objective.plan_cost(plan);

  bool improved = true;
  while (improved) {
    improved = false;
    FusionPlan best_plan = plan;
    double best_cost = cost;
    DecisionLog::Site best_site = DecisionLog::Site::PolishMerge;
    std::vector<KernelId> best_members;

    // `members` names the group the edit creates (merge/move) or dissolves
    // (split) — what a provenance decision attributes the cost delta to.
    // Only tracked when a decision log is attached, so the bare path stays
    // byte-for-byte the pre-provenance steepest descent.
    auto consider = [&](FusionPlan&& candidate, DecisionLog::Site site,
                        std::vector<KernelId>&& members) {
      const double c = objective.plan_cost(candidate);
      if (c < best_cost - 1e-18) {
        best_cost = c;
        best_plan = std::move(candidate);
        best_site = site;
        best_members = std::move(members);
      }
    };

    // merges
    for (int a = 0; a < plan.num_groups(); ++a) {
      for (int b = a + 1; b < plan.num_groups(); ++b) {
        std::vector<KernelId> merged(plan.group(a).begin(), plan.group(a).end());
        merged.insert(merged.end(), plan.group(b).begin(), plan.group(b).end());
        std::sort(merged.begin(), merged.end());
        if (!checker.group_is_legal(merged)) continue;
        FusionPlan candidate = plan;
        candidate.merge_groups(a, b);
        if (!checker.plan_is_schedulable(candidate)) continue;
        consider(std::move(candidate), DecisionLog::Site::PolishMerge,
                 provenance ? std::move(merged) : std::vector<KernelId>());
      }
    }
    // moves (kernel to a sharing neighbour's group)
    for (KernelId k = 0; k < plan.num_kernels(); ++k) {
      for (KernelId n : checker.sharing().neighbours(k)) {
        const int from = plan.group_of(k);
        const int to = plan.group_of(n);
        if (from == to) continue;
        std::vector<KernelId> target(plan.group(to).begin(), plan.group(to).end());
        target.push_back(k);
        std::sort(target.begin(), target.end());
        if (!checker.group_is_legal(target)) continue;
        FusionPlan candidate = plan;
        candidate.move_kernel(k, to);
        if (repair_plan(checker, candidate) > 0 &&
            !checker.plan_is_legal(candidate)) {
          continue;
        }
        consider(std::move(candidate), DecisionLog::Site::PolishMove,
                 provenance ? std::move(target) : std::vector<KernelId>());
      }
    }
    // splits
    for (int g = 0; g < plan.num_groups(); ++g) {
      if (plan.group(g).size() < 2) continue;
      FusionPlan candidate = plan;
      candidate.split_group(g);
      consider(std::move(candidate), DecisionLog::Site::PolishSplit,
               provenance ? std::vector<KernelId>(plan.group(g).begin(),
                                                  plan.group(g).end())
                          : std::vector<KernelId>());
    }

    if (best_cost < cost - 1e-18) {
      if (provenance) {
        telemetry->decisions->record(best_site, true, best_members,
                                     best_cost - cost,
                                     objective.dominant_component(best_members));
      }
      plan = std::move(best_plan);
      cost = best_cost;
      ++edits;
      improved = true;
    }
  }
  if (cost_out != nullptr) *cost_out = cost;
  return edits;
}

Hgga::Hgga(const Objective& objective, HggaConfig config)
    : objective_(objective), config_(config) {
  KF_REQUIRE(config_.population >= 4, "population too small");
  KF_REQUIRE(config_.elites >= 0 && config_.elites < config_.population,
             "elites out of range");
  KF_REQUIRE(config_.tournament_size >= 1, "tournament size must be >= 1");
}

void Hgga::make_random(Rng& rng, Individual& out) const {
  out.plan = random_legal_plan(objective_.checker(), rng,
                               rng.next_double(0.3, config_.init_aggressiveness));
  out.cost = objective_.plan_cost(out.plan);
}

void Hgga::evaluate_offspring(std::vector<Individual>& population) const {
  // Copy-assigning into the kept batch slots reuses their buffers, so a
  // steady-state generation allocates no plans here.
  std::vector<FusionPlan>& batch = scratch_.batch;
  std::size_t dirty = 0;
  for (const Individual& ind : population) {
    if (ind.cost >= 0.0) continue;  // elite, carried unchanged
    if (dirty == batch.size()) batch.emplace_back();
    batch[dirty++] = ind.plan;
  }
  const std::vector<double> costs =
      objective_.plan_costs(std::span<const FusionPlan>(batch.data(), dirty));
  std::size_t next = 0;
  for (Individual& ind : population) {
    if (ind.cost < 0.0) ind.cost = costs[next++];
  }
}

const Individual& Hgga::tournament(const std::vector<Individual>& pop,
                                   Rng& rng) const {
  const Individual* best = &pop[rng.next_below(pop.size())];
  for (int t = 1; t < config_.tournament_size; ++t) {
    const Individual& challenger = pop[rng.next_below(pop.size())];
    if (challenger.cost < best->cost) best = &challenger;
  }
  return *best;
}

void Hgga::crossover(const Individual& a, const Individual& b, Individual& child,
                     Rng& rng, const Telemetry* telemetry) const {
  const LegalityChecker& checker = objective_.checker();
  Scratch& s = scratch_;

  // Select the crossing section: each fused group of b is injected with
  // probability 1/2 (at least one when any exist). Both the injected set and
  // the child's group set under assembly live in flat scratch lists, so a
  // warm crossover allocates no per-group vectors.
  FlatGroupList& injected = s.injected;
  injected.clear();
  s.fused_groups.clear();
  for (int g = 0; g < b.plan.num_groups(); ++g) {
    if (b.plan.group(g).size() >= 2) s.fused_groups.push_back(g);
  }
  if (!s.fused_groups.empty()) {
    for (int g : s.fused_groups) {
      if (rng.next_bool(0.5)) injected.append(b.plan.group(g));
    }
    if (injected.size() == 0) {
      const int g = s.fused_groups[rng.next_below(s.fused_groups.size())];
      injected.append(b.plan.group(g));
    }
  }

  // Provenance: each inherited group is an accepted fusion decision of this
  // child. The delta is its fusion benefit over the members' original times,
  // read through the observer-side lookup so recording it moves no counter.
  if (telemetry != nullptr && telemetry->wants_decisions()) {
    for (int i = 0; i < injected.size(); ++i) {
      const auto g = injected.group(i);
      double original_sum = 0.0;
      for (KernelId k : g) original_sum += objective_.original_time(k);
      const double delta = objective_.inspect_group_cost(g).cost_s - original_sum;
      telemetry->decisions->record(DecisionLog::Site::CrossoverInject, true, g,
                                   delta, objective_.dominant_component(g));
    }
  }

  // Dissolve parent-a groups that collide with the injected members, then
  // rebuild: injected groups stay whole (group legality is group-local, so
  // they remain legal); orphans re-insert best-fit-first.
  s.taken.assign(static_cast<std::size_t>(a.plan.num_kernels()), 0);
  for (KernelId k : injected.members()) s.taken[static_cast<std::size_t>(k)] = 1;
  FlatGroupList& groups = s.groups;
  groups.clear();
  s.orphans.clear();
  for (int g = 0; g < a.plan.num_groups(); ++g) {
    const auto group = a.plan.group(g);
    const bool collides = std::any_of(group.begin(), group.end(), [&](KernelId k) {
      return s.taken[static_cast<std::size_t>(k)];
    });
    if (!collides) {
      groups.append(group);
    } else {
      for (KernelId k : group) {
        if (!s.taken[static_cast<std::size_t>(k)]) s.orphans.push_back(k);
      }
    }
  }
  for (int i = 0; i < injected.size(); ++i) groups.append(injected.group(i));

  // Re-insert orphans: best legal host group by marginal cost, else singleton.
  rng.shuffle(s.orphans);
  for (KernelId k : s.orphans) {
    int best_group = -1;
    double best_delta = std::numeric_limits<double>::infinity();
    for (int g = 0; g < groups.size(); ++g) {
      const auto host = groups.group(g);
      s.candidate.assign(host.begin(), host.end());
      s.candidate.insert(std::lower_bound(s.candidate.begin(), s.candidate.end(), k), k);
      if (!checker.group_is_legal(s.candidate)) continue;
      const double delta = objective_.group_cost(s.candidate).cost_s -
                           objective_.group_cost(host).cost_s;
      if (delta < best_delta) {
        best_delta = delta;
        best_group = g;
      }
    }
    const double solo = objective_.original_time(k);
    if (best_group >= 0 && best_delta < solo) {
      groups.insert_member(best_group, k);
    } else {
      groups.append_singleton(k);
    }
  }

  child.plan.assign_flat(a.plan.num_kernels(), groups.members(), groups.offsets());
  // Injected groups are individually legal, but their combination with the
  // kept groups may be unschedulable; repair restores full legality.
  repair_plan(checker, child.plan);
}

int Hgga::mutate(Individual& individual, Rng& rng,
                 const Telemetry* telemetry) const {
  const LegalityChecker& checker = objective_.checker();
  FusionPlan& plan = individual.plan;
  int applied = 0;
  // Provenance recording below never consumes RNG and reads group costs
  // through the observer-side lookup, so an attached decision log changes
  // neither the search nor its counters.
  const bool provenance = telemetry != nullptr && telemetry->wants_decisions();

  // merge two sharing-connected groups
  if (rng.next_bool(config_.mutation_merge_rate) && plan.num_groups() >= 2) {
    const KernelId k =
        static_cast<KernelId>(rng.next_below(static_cast<std::uint64_t>(plan.num_kernels())));
    const auto& neighbours = checker.sharing().neighbours(k);
    if (!neighbours.empty()) {
      const KernelId other = neighbours[rng.next_below(neighbours.size())];
      const int ga = plan.group_of(k);
      const int gb = plan.group_of(other);
      if (ga != gb) {
        std::vector<KernelId>& merged = scratch_.members;
        merged.assign(plan.group(ga).begin(), plan.group(ga).end());
        merged.insert(merged.end(), plan.group(gb).begin(), plan.group(gb).end());
        if (checker.group_is_legal(merged)) {
          FusionPlan trial = plan;
          trial.merge_groups(ga, gb);
          if (checker.plan_is_schedulable(trial)) {
            if (provenance) {
              std::sort(merged.begin(), merged.end());
              const double delta =
                  (objective_.inspect_group_cost(merged).cost_s -
                   objective_.inspect_group_cost(plan.group(ga)).cost_s) -
                  objective_.inspect_group_cost(plan.group(gb)).cost_s;
              telemetry->decisions->record(DecisionLog::Site::MutationMerge,
                                           true, merged, delta,
                                           objective_.dominant_component(merged));
            }
            plan = std::move(trial);
            ++applied;
          }
        }
      }
    }
  }

  // split a fused group into singletons
  if (rng.next_bool(config_.mutation_split_rate)) {
    std::vector<int>& fused = scratch_.fused_groups;
    fused.clear();
    for (int g = 0; g < plan.num_groups(); ++g) {
      if (plan.group(g).size() >= 2) fused.push_back(g);
    }
    if (!fused.empty()) {
      const int victim = fused[rng.next_below(fused.size())];
      if (provenance) {
        const auto group = plan.group(victim);
        double singleton_sum = 0.0;
        for (KernelId k : group) singleton_sum += objective_.original_time(k);
        const double delta =
            singleton_sum - objective_.inspect_group_cost(group).cost_s;
        telemetry->decisions->record(DecisionLog::Site::MutationSplit, true,
                                     group, delta,
                                     objective_.dominant_component(group));
      }
      plan.split_group(victim);
      ++applied;
    }
  }

  // move one kernel to a neighbouring group
  if (rng.next_bool(config_.mutation_move_rate)) {
    const KernelId k =
        static_cast<KernelId>(rng.next_below(static_cast<std::uint64_t>(plan.num_kernels())));
    const auto& neighbours = checker.sharing().neighbours(k);
    if (!neighbours.empty()) {
      const KernelId other = neighbours[rng.next_below(neighbours.size())];
      const int from = plan.group_of(k);
      const int to = plan.group_of(other);
      if (from != to) {
        std::vector<KernelId>& target = scratch_.members;
        target.assign(plan.group(to).begin(), plan.group(to).end());
        target.push_back(k);
        std::sort(target.begin(), target.end());
        if (checker.group_is_legal(target)) {
          if (provenance) {
            const double delta =
                objective_.inspect_group_cost(target).cost_s -
                objective_.inspect_group_cost(plan.group(to)).cost_s -
                objective_.original_time(k);
            telemetry->decisions->record(DecisionLog::Site::MutationMove, true,
                                         target, delta,
                                         objective_.dominant_component(target));
          }
          plan.move_kernel(k, to);
          // Removing k may have broken the source group's convexity or
          // connectivity; split it if so (split-repair).
          repair_plan(checker, plan);
          ++applied;
        }
      }
    }
  }
  return applied;
}

SearchResult Hgga::run(SearchControl* control, const HggaCheckpointing* checkpointing,
                       const Telemetry* telemetry) {
  Stopwatch watch;
  SpanTracer::Scope run_span = scoped_span(telemetry, "hgga.run");
  SpanTracer::Scope init_span = scoped_span(telemetry, "hgga.init");
  Rng master(config_.seed);
  const Program& program = objective_.checker().program();
  const bool checkpoint_enabled =
      checkpointing != nullptr && !checkpointing->file.empty();

  SearchResult result;
  result.baseline_cost_s = objective_.baseline_cost();

  auto best_of = [](const std::vector<Individual>& pop) {
    return std::min_element(pop.begin(), pop.end(),
                            [](const auto& a, const auto& b) { return a.cost < b.cost; });
  };

  // The population lives in a double-buffered arena: each generation's
  // offspring are bred into recycled slots of the spare pool, then promoted
  // wholesale. `population` aliases the current pool — the reference stays
  // valid across promotions (the pools swap buffers, not identities).
  Population arena;
  std::vector<Individual>& population = arena.individuals();
  Individual best;
  int start_gen = 0;
  int stall = 0;

  if (checkpoint_enabled && checkpointing->resume) {
    // Resume: restore population, incumbent, counters and the master RNG so
    // the continuation is bit-identical to an uninterrupted run.
    const HggaCheckpoint ckpt = load_checkpoint(checkpointing->file);
    KF_CHECK(ckpt.num_kernels == program.num_kernels(),
             "checkpoint was taken for " << ckpt.num_kernels << " kernels, program has "
                                         << program.num_kernels());
    KF_CHECK(ckpt.seed == config_.seed,
             "checkpoint seed " << ckpt.seed << " differs from configured seed "
                                << config_.seed);
    master.set_state(ckpt.rng_state);
    for (std::size_t i = 0; i < ckpt.population.size(); ++i) {
      Individual& slot = arena.next_offspring();
      slot.plan = ckpt.population[i];
      slot.cost = ckpt.costs[i];
    }
    arena.promote_offspring();
    best.plan = ckpt.best;
    best.cost = ckpt.best_cost;
    start_gen = ckpt.generation;
    stall = ckpt.stall;
    result.history = ckpt.history;
    result.trace = ckpt.trace;
    result.generations = start_gen;
    if (telemetry != nullptr && telemetry->wants_trace()) {
      telemetry->trace->emit("checkpoint_resume", [&](TraceEvent& e) {
        e.str("file", checkpointing->file)
            .num("generation", start_gen)
            .num("best_cost_s", best.cost);
      });
    }
  } else {
    for (int i = 0; i < config_.population; ++i) {
      if (control != nullptr && control->should_stop()) break;
      Rng rng = master.split();
      make_random(rng, arena.next_offspring());
    }
    if (arena.offspring_count() == 0) {
      // Budget exhausted before any individual: the identity plan is the
      // legal best-so-far.
      Individual& identity = arena.next_offspring();
      identity.plan = FusionPlan(program.num_kernels());
      identity.cost = objective_.plan_cost(identity.plan);
    }
    arena.promote_offspring();
    best = *best_of(population);
  }
  result.time_to_best_s = watch.elapsed_s();
  init_span.end();
  if (control != nullptr) control->note_best(best.plan, best.cost);

  auto snapshot = [&](int next_gen) {
    HggaCheckpoint ckpt;
    ckpt.program_name = program.name();
    ckpt.num_kernels = program.num_kernels();
    ckpt.seed = config_.seed;
    ckpt.generation = next_gen;
    ckpt.stall = stall;
    ckpt.rng_state = master.state();
    ckpt.best_cost = best.cost;
    ckpt.best = best.plan;
    ckpt.population.reserve(population.size());
    ckpt.costs.reserve(population.size());
    for (const Individual& ind : population) {
      ckpt.population.push_back(ind.plan);
      ckpt.costs.push_back(ind.cost);
    }
    ckpt.history = result.history;
    ckpt.trace = result.trace;
    save_checkpoint(checkpointing->file, ckpt);
    if (telemetry != nullptr) {
      if (telemetry->metrics != nullptr) telemetry->metrics->count("search.checkpoint_saves");
      if (telemetry->wants_trace()) {
        telemetry->trace->emit("checkpoint_save", [&](TraceEvent& e) {
          e.str("file", checkpointing->file)
              .num("generation", next_gen)
              .num("best_cost_s", best.cost);
        });
      }
    }
  };

  // Stall is tested in the loop condition (not via a bottom-of-body break) so
  // that resuming from a checkpoint taken at a stalled boundary exits exactly
  // where the uninterrupted run did.
  Stopwatch gen_watch;  // lap per generation, for telemetry throughput only
  std::vector<int> elite_order;              // per-generation scratch, hoisted
  std::vector<double> crossover_parent_cost;
  for (int gen = start_gen;
       gen < config_.max_generations && stall < config_.stall_generations; ++gen) {
    if (control != nullptr && control->should_stop()) break;
    SpanTracer::Scope gen_span = scoped_span(telemetry, "hgga.generation");
    SpanTracer::Scope breed_span = scoped_span(telemetry, "hgga.breed");
    const long evals_at_gen_start = objective_.evaluations();
    // --- produce offspring (into recycled arena slots) ---

    // Elites survive unchanged: partial-select indices instead of copying
    // and fully sorting the population just to pick the top few. Ties break
    // on index so the selection is deterministic across library
    // implementations (std::partial_sort is unstable).
    const int elites = std::min(config_.elites, static_cast<int>(population.size()));
    elite_order.resize(population.size());
    std::iota(elite_order.begin(), elite_order.end(), 0);
    std::partial_sort(elite_order.begin(), elite_order.begin() + elites,
                      elite_order.end(), [&](int x, int y) {
                        const double cx = population[static_cast<std::size_t>(x)].cost;
                        const double cy = population[static_cast<std::size_t>(y)].cost;
                        if (cx != cy) return cx < cy;
                        return x < y;
                      });
    for (int e = 0; e < elites; ++e) {
      arena.next_offspring() = population[static_cast<std::size_t>(elite_order[e])];
    }

    // Operator activity for this generation's stats: crossover children
    // remember their better parent's cost so improvement is measurable
    // after the (parallel) evaluation pass.
    GenerationStats stats;
    crossover_parent_cost.assign(arena.offspring_count(),
                                 std::numeric_limits<double>::quiet_NaN());
    while (static_cast<int>(arena.offspring_count()) < config_.population) {
      Rng rng = master.split();
      // The child slot is recycled from the previous generation: every field
      // is (re)assigned below, reusing the old plan/memo heap buffers.
      Individual& child = arena.next_offspring();
      double parent_cost = std::numeric_limits<double>::quiet_NaN();
      if (rng.next_bool(config_.crossover_rate)) {
        const Individual& a = tournament(population, rng);
        const Individual& b = tournament(population, rng);
        crossover(a, b, child, rng, telemetry);
        parent_cost = std::min(a.cost, b.cost);
        ++stats.crossovers;
      } else {
        child.plan = tournament(population, rng).plan;
      }
      stats.mutations += mutate(child, rng, telemetry);
      child.cost = -1.0;  // mark for evaluation
      crossover_parent_cost.push_back(parent_cost);
    }
    breed_span.end();

    // Generational replacement first (pure buffer swap), evaluation after:
    // the new generation is scored in place.
    arena.promote_offspring();

    // --- evaluate: one batched, deduplicated pass over the offspring ---
    {
      SpanTracer::Scope eval_span = scoped_span(telemetry, "hgga.evaluate");
      evaluate_offspring(population);
    }
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (!std::isnan(crossover_parent_cost[i]) &&
          population[i].cost < crossover_parent_cost[i] - 1e-15) {
        ++stats.crossover_improved;
      }
    }

    const auto it = best_of(population);
    if (it->cost < best.cost - 1e-15) {
      best = *it;
      result.time_to_best_s = watch.elapsed_s();
      stall = 0;
      if (control != nullptr) control->note_best(best.plan, best.cost);
    } else {
      ++stall;
    }
    result.history.push_back(best.cost);
    {
      stats.best_cost_s = best.cost;
      double cost_sum = 0.0;
      double group_sum = 0.0;
      double worst = 0.0;
      std::set<std::uint64_t> fingerprints;
      for (const Individual& ind : population) {
        cost_sum += ind.cost;
        group_sum += ind.plan.num_groups();
        worst = std::max(worst, ind.cost);
        fingerprints.insert(ind.plan.fingerprint());
      }
      stats.mean_cost_s = cost_sum / static_cast<double>(population.size());
      stats.mean_groups = group_sum / static_cast<double>(population.size());
      stats.worst_cost_s = worst;
      stats.distinct_plans = static_cast<int>(fingerprints.size());
      result.trace.push_back(stats);
    }
    result.generations = gen + 1;
    if (telemetry != nullptr && telemetry->active()) {
      note_generation(*telemetry, gen, result.trace.back(), gen_watch.lap_s(),
                      objective_.evaluations(),
                      objective_.evaluations() - evals_at_gen_start,
                      control != nullptr ? control->elapsed_s() : watch.elapsed_s(),
                      static_cast<int>(population.size()), stall,
                      objective_.cache_stats());
    }
    if (checkpoint_enabled &&
        (gen + 1) % std::max(1, checkpointing->every_generations) == 0) {
      snapshot(gen + 1);
    }
  }
  if (checkpoint_enabled) snapshot(result.generations);

  result.best = best.plan;
  const bool stopped_early = control != nullptr && control->stopped();
  // Polish is skipped on an early stop: it can take arbitrarily long and the
  // contract is to return the legal best-so-far near the deadline.
  if (config_.local_polish && !stopped_early) {
    const double cost_before = best.cost;
    double polished_cost = best.cost;
    const int edits =
        local_polish(objective_, result.best, &polished_cost, telemetry);
    if (edits > 0) {
      best.cost = polished_cost;
      result.time_to_best_s = watch.elapsed_s();
      if (control != nullptr) control->note_best(result.best, best.cost);
    }
    if (telemetry != nullptr) {
      if (telemetry->metrics != nullptr) {
        telemetry->metrics->count("search.polish_edits", edits);
      }
      if (telemetry->wants_trace()) {
        telemetry->trace->emit("local_polish", [&](TraceEvent& e) {
          e.num("edits", edits)
              .num("cost_before_s", cost_before)
              .num("cost_after_s", best.cost);
        });
      }
    }
  }
  result.best.canonicalize();
  result.best_cost_s = best.cost;
  result.evaluations = objective_.evaluations();
  result.model_evaluations = objective_.model_evaluations();
  result.runtime_s = watch.elapsed_s();
  fill_fault_report(result, objective_, control);
  return result;
}

}  // namespace kf
