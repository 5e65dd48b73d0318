#include "search/hgga.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <numeric>

#include "search/checkpoint.hpp"
#include "search/driver.hpp"
#include "search/population.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"

namespace kf {

namespace {

constexpr double kCrossoverRate = 0.7;
constexpr double kMutationMergeRate = 0.35;
constexpr double kMutationSplitRate = 0.10;
constexpr double kMutationMoveRate = 0.20;
constexpr int kTournamentSize = 3;
constexpr int kElites = 4;
/// Initial plans merge each kernel with a probability drawn from [0.3, this).
constexpr double kInitAggressiveness = 0.8;

/// Per-generation telemetry fan-out: metrics series, one "generation" trace
/// event, and the --progress heartbeat. Only called when telemetry is active.
void note_generation(const Telemetry& t, int gen, const GenerationStats& s,
                     const Hgga::BreedCounts& breed, double gen_s, long total_evals,
                     long gen_evals, double elapsed_s, int population, int stall,
                     const Objective::CacheStats& cache) {
  const double evals_per_s = gen_s > 0.0 ? static_cast<double>(gen_evals) / gen_s : 0.0;
  if (t.metrics != nullptr) {
    t.metrics->count("search.generations");
    t.metrics->count("search.crossovers", s.crossovers);
    t.metrics->count("search.breed.orphans", breed.orphans);
    t.metrics->count("search.breed.host_checks", breed.host_checks);
    t.metrics->count("search.breed.hosts_legal", breed.hosts_legal);
    t.metrics->count("search.breed.cyclic_children", breed.cyclic_children);
    t.metrics->count("search.breed.cycle_splits", breed.cycle_splits);
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

int local_polish(const Objective& objective, FusionPlan& plan, double* cost_out,
                 const Telemetry* telemetry, SearchControl* control) {
  const LegalityChecker& checker = objective.checker();
  KF_REQUIRE(checker.plan_is_legal(plan), "local_polish needs a legal plan");
  SpanTracer::Scope polish_span = scoped_span(telemetry, "local_polish");
  const bool provenance = telemetry != nullptr && telemetry->wants_decisions();

  // The current plan's group costs c[g] and their running sums. A
  // candidate's total is summed in the order plan_cost(candidate) would sum
  // it — the unchanged prefix from `prefix`, then each later group in turn,
  // then any groups the edit appends — so it is bit-identical to that full
  // re-cost, and no plan is copied to get it. Only the edit's new groups
  // are queried, in the candidate's group order.
  std::vector<double> c;
  std::vector<double> prefix;
  auto cost_current = [&] {
    const int ng = plan.num_groups();
    c.resize(static_cast<std::size_t>(ng));
    prefix.assign(1, 0.0);
    for (int g = 0; g < ng; ++g) {
      c[static_cast<std::size_t>(g)] = objective.group_cost(plan.group(g)).cost_s;
      prefix.push_back(prefix.back() + c[static_cast<std::size_t>(g)]);
    }
    return prefix.back();
  };
  auto add_singletons = [&](double total, std::span<const KernelId> members) {
    for (const KernelId& m : members) {
      total += objective.group_cost(std::span<const KernelId>(&m, 1)).cost_s;
    }
    return total;
  };

  // A step's best candidate is an edit applied in place, with the same
  // operations the candidate was priced for, or — for a move that needs
  // repair_plan's cycle-breaking — the repaired copy itself.
  enum class Edit { Merge, Move, Split, Repaired };
  int edits = 0;
  double cost = cost_current();
  std::vector<KernelId> merged;
  std::vector<KernelId> target;
  std::vector<KernelId> rest;
  // Descriptors check_group built for a merge or move target and for a
  // move's rest, handed on to group_cost.
  LaunchDescriptor built;
  LaunchDescriptor rest_built;
  std::vector<KernelId> best_members;
  std::vector<int> priced_for;  // group -> last kernel whose move into it was priced
  std::vector<char> near;       // group -> holds a sharing neighbour of group a
  while (control == nullptr || !control->should_stop()) {
    const int ng = plan.num_groups();
    double best_cost = cost;
    Edit best_edit = Edit::Merge;
    int best_x = -1;
    int best_y = -1;
    bool best_split = false;
    FusionPlan best_plan;
    // Strict improvement only, so of equal candidates the first one wins.
    // `members` is the group the edit creates (merge, move) or dissolves
    // (split), which a provenance decision attributes the cost delta to.
    auto consider = [&](double total, Edit edit, int x, int y, bool split,
                        std::span<const KernelId> members) {
      if (!(total < best_cost - 1e-18)) return false;
      best_cost = total;
      best_edit = edit;
      best_x = x;
      best_y = y;
      best_split = split;
      if (provenance) best_members.assign(members.begin(), members.end());
      return true;
    };

    // merges: the union sits at a, b is removed. Groups are legal, hence
    // connected, so only a group holding a sharing neighbour of a can form
    // a connected union with it; the others are skipped unchecked.
    for (int a = 0; a < ng; ++a) {
      near.assign(static_cast<std::size_t>(ng), 0);
      for (KernelId k : plan.group(a)) {
        for (KernelId nb : checker.sharing().neighbours(k)) {
          near[static_cast<std::size_t>(plan.group_of(nb))] = 1;
        }
      }
      for (int b = a + 1; b < ng; ++b) {
        if (!near[static_cast<std::size_t>(b)]) continue;
        merged.assign(plan.group(a).begin(), plan.group(a).end());
        merged.insert(merged.end(), plan.group(b).begin(), plan.group(b).end());
        std::sort(merged.begin(), merged.end());
        if (checker.check_group(merged, &built) != LegalityVerdict::Ok) continue;
        if (!checker.merge_is_schedulable(plan, a, b)) continue;
        double total =
            prefix[static_cast<std::size_t>(a)] + objective.group_cost(merged, &built).cost_s;
        for (int g = a + 1; g < ng; ++g) {
          if (g != b) total += c[static_cast<std::size_t>(g)];
        }
        consider(total, Edit::Merge, a, b, false, merged);
      }
    }
    // moves (kernel to a sharing neighbour's group), each (k, to) once:
    // `to` holds the target; `from` keeps the rest in its slot, is removed
    // when k was its only member, or — when the rest is no longer a legal
    // group — is removed with the rest appended as singletons in stored
    // order, which is what repair_plan's split_group does.
    priced_for.assign(static_cast<std::size_t>(ng), -1);
    for (KernelId k = 0; k < plan.num_kernels(); ++k) {
      const int from = plan.group_of(k);
      bool rest_known = false;  // the rest of `from` depends on k alone
      bool split_rest = false;
      for (KernelId n : checker.sharing().neighbours(k)) {
        const int to = plan.group_of(n);
        if (from == to || priced_for[static_cast<std::size_t>(to)] == k) continue;
        priced_for[static_cast<std::size_t>(to)] = k;
        target.assign(plan.group(to).begin(), plan.group(to).end());
        target.push_back(k);
        std::sort(target.begin(), target.end());
        if (checker.check_group(target, &built) != LegalityVerdict::Ok) continue;
        if (!rest_known) {
          rest.clear();
          for (KernelId m : plan.group(from)) {
            if (m != k) rest.push_back(m);
          }
          split_rest = rest.size() >= 2 &&
                       checker.check_group(rest, &rest_built) != LegalityVerdict::Ok;
          rest_known = true;
        }
        if (!checker.move_is_schedulable(plan, k, to, split_rest)) {
          FusionPlan candidate = plan;
          apply_move(checker, candidate, k, to);
          if (consider(objective.plan_cost(candidate), Edit::Repaired, k, to, false, target)) {
            best_plan = std::move(candidate);
          }
          continue;
        }
        const int lo = std::min(from, to);
        double total = prefix[static_cast<std::size_t>(lo)];
        for (int g = lo; g < ng; ++g) {
          if (g == to) {
            total += objective.group_cost(target, &built).cost_s;
          } else if (g == from) {
            if (!rest.empty() && !split_rest) {
              total += objective.group_cost(rest, &rest_built).cost_s;
            }
          } else {
            total += c[static_cast<std::size_t>(g)];
          }
        }
        if (split_rest) total = add_singletons(total, rest);
        consider(total, Edit::Move, k, to, split_rest, target);
      }
    }
    // splits: g is removed and its members are appended in stored order
    for (int g = 0; g < ng; ++g) {
      if (plan.group(g).size() < 2) continue;
      double total = prefix[static_cast<std::size_t>(g)];
      for (int h = g + 1; h < ng; ++h) total += c[static_cast<std::size_t>(h)];
      consider(add_singletons(total, plan.group(g)), Edit::Split, g, -1, false, plan.group(g));
    }

    if (!(best_cost < cost - 1e-18)) break;
    if (provenance) {
      const DecisionLog::Site site = best_edit == Edit::Merge   ? DecisionLog::Site::PolishMerge
                                     : best_edit == Edit::Split ? DecisionLog::Site::PolishSplit
                                                                : DecisionLog::Site::PolishMove;
      telemetry->decisions->record(site, true, best_members, best_cost - cost,
                                   objective.dominant_component(best_members));
    }
    switch (best_edit) {
      case Edit::Merge:
        plan.merge_groups(best_x, best_y);
        break;
      case Edit::Move: {
        const int from = plan.group_of(static_cast<KernelId>(best_x));
        plan.move_kernel(static_cast<KernelId>(best_x), best_y);
        // A split rest has members left, so `from` kept its index.
        if (best_split) plan.split_group(from);
        break;
      }
      case Edit::Split:
        plan.split_group(best_x);
        break;
      case Edit::Repaired:
        plan = std::move(best_plan);
        break;
    }
    ++edits;
    cost = best_cost;
    cost_current();
  }
  if (cost_out != nullptr) *cost_out = cost;
  return edits;
}

Hgga::Hgga(const Objective& objective, HggaConfig config)
    : objective_(objective), config_(config) {
  KF_REQUIRE(config_.population > kElites,
             "population must exceed the " << kElites << " elites");
}

void Hgga::make_random(Rng& rng, Individual& out) const {
  out.plan = random_legal_plan(objective_.checker(), rng,
                               rng.next_double(0.3, kInitAggressiveness));
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
  for (int t = 1; t < kTournamentSize; ++t) {
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
  s.anchors.clear();
  for (int i = 0; i < injected.size(); ++i) {
    s.anchors.push_back(groups.size());
    groups.append(injected.group(i));
  }
  s.owner.assign(static_cast<std::size_t>(a.plan.num_kernels()), -1);
  for (int g = 0; g < groups.size(); ++g) {
    for (KernelId k : groups.group(g)) s.owner[static_cast<std::size_t>(k)] = g;
  }

  // Re-insert orphans: best legal host group by marginal cost, else
  // singleton. Only a group holding a sharing neighbour of k in k's phase
  // can host it — any other host fails the phase barrier or kinship (1.5)
  // before check_group touches its memo — so those are the only
  // candidates, visited in ascending group index as a scan of every group
  // would. Each host is a legal group and k shares an array with one of
  // its members, so check_extension decides.
  const Program& program = checker.program();
  rng.shuffle(s.orphans);
  for (KernelId k : s.orphans) {
    const int phase = program.kernel(k).phase;
    s.hosts.clear();
    for (KernelId n : checker.sharing().neighbours(k)) {
      const int g = s.owner[static_cast<std::size_t>(n)];
      if (g >= 0 && program.kernel(n).phase == phase) s.hosts.push_back(g);
    }
    std::sort(s.hosts.begin(), s.hosts.end());
    s.hosts.erase(std::unique(s.hosts.begin(), s.hosts.end()), s.hosts.end());
    int best_group = -1;
    double best_delta = std::numeric_limits<double>::infinity();
    for (int g : s.hosts) {
      const auto host = groups.group(g);
      s.candidate.assign(host.begin(), host.end());
      s.candidate.insert(std::lower_bound(s.candidate.begin(), s.candidate.end(), k), k);
      ++s.breed.host_checks;
      if (checker.check_extension(s.candidate, k, &s.built) != LegalityVerdict::Ok) continue;
      ++s.breed.hosts_legal;
      const double delta = objective_.group_cost(s.candidate, &s.built).cost_s -
                           objective_.group_cost(host).cost_s;
      if (delta < best_delta) {
        best_delta = delta;
        best_group = g;
      }
    }
    const double solo = objective_.original_time(k);
    if (best_group >= 0 && best_delta < solo) {
      groups.insert_member(best_group, k);
      s.owner[static_cast<std::size_t>(k)] = best_group;
      s.anchors.push_back(best_group);
    } else {
      groups.append_singleton(k);
      s.owner[static_cast<std::size_t>(k)] = groups.size() - 1;
    }
  }
  s.breed.orphans += static_cast<long>(s.orphans.size());

  // No group is empty, so the child's groups keep their indices (and the
  // anchors stay valid).
  child.plan.assign_flat(a.plan.num_kernels(), groups.members(), groups.offsets());
  // Every group is legal by construction — a whole group of a legal parent,
  // an injected group, a host that check_extension accepted with its
  // orphans, or a singleton — and legality is group-local. Only their
  // combination may be unschedulable. Parent a is schedulable, and every
  // group but the anchors is a whole group of a or a singleton piece of
  // one, so any quotient cycle passes through an anchor: the search from
  // the anchors decides whether the cycle-breaking pass has work to do.
  if (checker.cycle_from(child.plan, s.anchors)) {
    ++s.breed.cyclic_children;
    s.breed.cycle_splits += break_cycles(checker, child.plan);
  }
}

int Hgga::mutate(Individual& individual, Rng& rng,
                 const Telemetry* telemetry) const {
  const LegalityChecker& checker = objective_.checker();
  FusionPlan& plan = individual.plan;
  std::vector<KernelId>& members = scratch_.members;
  int applied = 0;
  // Provenance recording below never consumes RNG and reads group costs
  // through the observer-side lookup, so an attached decision log changes
  // neither the search nor its counters.
  const bool provenance = telemetry != nullptr && telemetry->wants_decisions();
  KernelId k = 0;
  KernelId other = 0;

  // merge two sharing-connected groups
  if (rng.next_bool(kMutationMergeRate) && plan.num_groups() >= 2 &&
      draw_neighbour_pair(checker, rng, k, other)) {
    const int ga = plan.group_of(k);
    const int gb = plan.group_of(other);
    if (merge_is_legal(checker, plan, ga, gb, members)) {
      if (provenance) {
        std::sort(members.begin(), members.end());
        const double delta = (objective_.inspect_group_cost(members).cost_s -
                              objective_.inspect_group_cost(plan.group(ga)).cost_s) -
                             objective_.inspect_group_cost(plan.group(gb)).cost_s;
        telemetry->decisions->record(DecisionLog::Site::MutationMerge, true, members, delta,
                                     objective_.dominant_component(members));
      }
      plan.merge_groups(ga, gb);
      ++applied;
    }
  }

  // split a fused group into singletons
  int victim = -1;
  if (rng.next_bool(kMutationSplitRate) &&
      draw_fused_group(plan, rng, scratch_.fused_groups, victim)) {
    if (provenance) {
      const auto group = plan.group(victim);
      double singleton_sum = 0.0;
      for (KernelId m : group) singleton_sum += objective_.original_time(m);
      const double delta = singleton_sum - objective_.inspect_group_cost(group).cost_s;
      telemetry->decisions->record(DecisionLog::Site::MutationSplit, true, group, delta,
                                   objective_.dominant_component(group));
    }
    plan.split_group(victim);
    ++applied;
  }

  // move one kernel to a neighbouring group
  if (rng.next_bool(kMutationMoveRate) && draw_neighbour_pair(checker, rng, k, other)) {
    const int to = plan.group_of(other);
    if (move_is_legal(checker, plan, k, to, members)) {
      if (provenance) {
        const double delta = objective_.inspect_group_cost(members).cost_s -
                             objective_.inspect_group_cost(plan.group(to)).cost_s -
                             objective_.original_time(k);
        telemetry->decisions->record(DecisionLog::Site::MutationMove, true, members, delta,
                                     objective_.dominant_component(members));
      }
      // Removing k may have broken the source group's convexity or
      // connectivity; apply_move splits it if so (split-repair).
      apply_move(checker, plan, k, to);
      ++applied;
    }
  }
  return applied;
}

SearchResult Hgga::run(SearchControl* control, const HggaCheckpointing* checkpointing,
                       const Telemetry* telemetry) {
  const SearchEpilogue epilogue(objective_);
  SpanTracer::Scope run_span = scoped_span(telemetry, "hgga.run");
  SpanTracer::Scope init_span = scoped_span(telemetry, "hgga.init");
  Rng master(config_.seed);
  const Program& program = objective_.checker().program();
  const bool checkpoint_enabled =
      checkpointing != nullptr && !checkpointing->file.empty();

  SearchResult result;
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
    const char* file = checkpointing->file.c_str();
    if (ckpt.num_kernels != program.num_kernels()) {
      throw CheckpointError(strprintf(
          "checkpoint '%s' was written for a different program (%d kernels, not %d)",
          file, ckpt.num_kernels, program.num_kernels()));
    }
    if (ckpt.seed != config_.seed) {
      throw CheckpointError(strprintf(
          "checkpoint '%s' was written with seed %llu, not %llu", file,
          static_cast<unsigned long long>(ckpt.seed),
          static_cast<unsigned long long>(config_.seed)));
    }
    // Crossover keeps its parents' groups without re-checking them and
    // polish refuses an illegal plan, so every restored plan must be legal.
    auto require_legal = [&](const FusionPlan& plan, const std::string& which) {
      int group = -1;
      const LegalityVerdict verdict = objective_.checker().check_plan(plan, &group);
      if (verdict == LegalityVerdict::Ok) return;
      std::string where;
      if (group >= 0) {
        where = " in group {";
        for (KernelId k : plan.group(group)) {
          if (where.back() != '{') where += ',';
          where += std::to_string(k);
        }
        where += '}';
      }
      throw CheckpointError(strprintf("checkpoint '%s': %s is not a legal plan: %s%s", file,
                                      which.c_str(), to_string(verdict), where.c_str()));
    };
    for (std::size_t i = 0; i < ckpt.population.size(); ++i) {
      require_legal(ckpt.population[i], "individual " + std::to_string(i));
    }
    require_legal(ckpt.best, "the best plan");
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
  result.time_to_best_s = epilogue.elapsed_s();
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
    const long evals_at_gen_start = epilogue.evaluations();
    // --- produce offspring (into recycled arena slots) ---

    // Elites survive unchanged: partial-select indices instead of copying
    // and fully sorting the population just to pick the top few. Ties break
    // on index so the selection is deterministic across library
    // implementations (std::partial_sort is unstable).
    const int elites = std::min(kElites, static_cast<int>(population.size()));
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
    scratch_.breed = BreedCounts{};
    crossover_parent_cost.assign(arena.offspring_count(),
                                 std::numeric_limits<double>::quiet_NaN());
    while (static_cast<int>(arena.offspring_count()) < config_.population) {
      Rng rng = master.split();
      // The child slot is recycled from the previous generation: every field
      // is (re)assigned below, reusing the old plan/memo heap buffers.
      Individual& child = arena.next_offspring();
      double parent_cost = std::numeric_limits<double>::quiet_NaN();
      if (rng.next_bool(kCrossoverRate)) {
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
      result.time_to_best_s = epilogue.elapsed_s();
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
      // A plan's key is the sum of its groups' fingerprints: independent of
      // group order, and distinct for distinct partitions up to a 64-bit
      // collision, which can only undercount this diagnostic.
      std::vector<std::uint64_t>& keys = scratch_.plan_keys;
      keys.clear();
      for (const Individual& ind : population) {
        cost_sum += ind.cost;
        group_sum += ind.plan.num_groups();
        worst = std::max(worst, ind.cost);
        std::uint64_t key = 0;
        for (int g = 0; g < ind.plan.num_groups(); ++g) {
          key += Objective::group_fingerprint(ind.plan.group(g));
        }
        keys.push_back(key);
      }
      std::sort(keys.begin(), keys.end());
      stats.mean_cost_s = cost_sum / static_cast<double>(population.size());
      stats.mean_groups = group_sum / static_cast<double>(population.size());
      stats.worst_cost_s = worst;
      stats.distinct_plans =
          static_cast<int>(std::unique(keys.begin(), keys.end()) - keys.begin());
      result.trace.push_back(stats);
    }
    result.generations = gen + 1;
    if (telemetry != nullptr && telemetry->active()) {
      const long run_evals = epilogue.evaluations();
      note_generation(*telemetry, gen, result.trace.back(), scratch_.breed, gen_watch.lap_s(),
                      run_evals, run_evals - evals_at_gen_start,
                      control != nullptr ? control->elapsed_s() : epilogue.elapsed_s(),
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
  // The "hybrid" in HGGA: steepest-descent local search (merge / move /
  // split neighbourhood) polishes the final best individual. Polish is
  // skipped on an early stop: it can take arbitrarily long and the contract
  // is to return the legal best-so-far near the deadline.
  if (!stopped_early) {
    const double cost_before = best.cost;
    double polished_cost = best.cost;
    const int edits =
        local_polish(objective_, result.best, &polished_cost, telemetry);
    if (edits > 0) {
      best.cost = polished_cost;
      result.time_to_best_s = epilogue.elapsed_s();
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
  result.best_cost_s = best.cost;
  return epilogue.finish(std::move(result), control);
}

}  // namespace kf
