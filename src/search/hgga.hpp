// The adapted Hybrid Grouping Genetic Algorithm (paper §III-C).
//
// Falkenauer's HGGA encodes *groups* as genes, so crossover and mutation
// act on whole groups and never tear apart the meaningful building blocks
// (here: sets of kernels whose fusion the projection model likes). The
// paper's adaptation keeps every individual legal at all times — the
// group-local legality checks (convexity, kinship, resources) run inside
// the operators, implementing the "active constraint" pruning:
//
//  * crossover: inject a random selection of fused groups from one parent
//    into a copy of the other; groups that collide are dissolved and their
//    orphans re-inserted best-fit-first (legality-checked);
//  * mutations: merge two sharing-connected groups / split a group /
//    move one kernel between neighbouring groups (with split-repair);
//  * selection: tournament; replacement: generational with elitism;
//  * stop: no improvement of the best for `stall_generations` (the paper's
//    criterion), or the generation cap.
//
// Fitness evaluation is OpenMP-parallel across the population (the paper
// ran the solver with OpenMP on a Xeon X5670). The population itself lives
// in the double-buffered arena of search/population.hpp, so generational
// replacement recycles every individual's storage instead of reallocating.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fusion/fusion_plan.hpp"
#include "search/objective.hpp"
#include "search/population.hpp"
#include "util/rng.hpp"

namespace kf {

class SearchControl;  // search/driver.hpp
struct Telemetry;     // telemetry/telemetry.hpp

/// Why a search run ended.
enum class StopReason {
  Converged,         ///< natural stop: stall criterion, budget exhausted by
                     ///< the method itself, or enumeration complete
  Deadline,          ///< wall-clock deadline hit
  EvaluationBudget,  ///< max-evaluation budget hit
  FaultStorm,        ///< too many quarantined faults (or an escaped failure)
};
const char* to_string(StopReason reason) noexcept;

/// Resilience telemetry carried by every SearchResult.
struct FaultReport {
  long faults = 0;          ///< this run's evaluations that threw and were quarantined
  long quarantined = 0;     ///< distinct member sets the objective holds in quarantine
  StopReason stop_reason = StopReason::Converged;

  bool clean() const noexcept {
    return faults == 0 && quarantined == 0 && stop_reason == StopReason::Converged;
  }
};

/// The run's size, stop rule and seed. The operator rates, tournament size,
/// elite count and initial merge aggressiveness are fixed (hgga.cpp).
struct HggaConfig {
  int population = 100;          ///< must exceed the 4 elites
  int max_generations = 2000;
  int stall_generations = 200;   ///< stop after this many flat generations
  std::uint64_t seed = 0x5eed;
};

/// Per-generation telemetry (population statistics + operator activity).
/// Checkpointed alongside the population (see checkpoint.cpp), so every
/// field must be deterministic for a given seed — wall-clock readings
/// belong in the trace log, not here.
struct GenerationStats {
  double best_cost_s = 0.0;   ///< best-so-far, monotone
  double mean_cost_s = 0.0;   ///< population mean this generation
  double worst_cost_s = 0.0;  ///< population max this generation
  int distinct_plans = 0;     ///< distinct partitions (diversity)
  double mean_groups = 0.0;   ///< average launch count across individuals
  int crossovers = 0;          ///< children produced by group crossover
  int crossover_improved = 0;  ///< ... that beat their better parent
  int mutations = 0;           ///< mutation operators actually applied
};

struct SearchResult {
  FusionPlan best;
  double best_cost_s = 0.0;
  double baseline_cost_s = 0.0;    ///< no-fusion plan cost
  int generations = 0;
  long evaluations = 0;            ///< objective calls during this run
  long model_evaluations = 0;      ///< this run's cache misses (actual model runs)
  double runtime_s = 0.0;
  double time_to_best_s = 0.0;     ///< wall time when the best was first seen
  std::vector<double> history;     ///< best cost per generation
  std::vector<GenerationStats> trace;  ///< per-generation population stats
  FaultReport fault_report;        ///< faults seen + why the run stopped

  double projected_speedup() const noexcept {
    return best_cost_s > 0.0 ? baseline_cost_s / best_cost_s : 0.0;
  }
};

/// Steepest-descent local search over the merge / move / split
/// neighbourhood: applies the best strictly-improving legal edit until a
/// local optimum is reached. Returns the number of edits applied. `plan`
/// must be legal (throws PreconditionError otherwise) and stays legal.
/// Each step prices every candidate from the plan's per-group costs in the
/// candidate's own group order, so a candidate's total is bit-identical to
/// plan_cost of the edited plan, and copies a plan only for a move that
/// needs repair_plan's cycle-breaking.
/// `telemetry` (optional) records a "local_polish" span and one provenance
/// decision per applied edit — a null pointer costs one branch per edit.
/// `control` (optional) is polled once per step; on a stop the current plan
/// is returned at its exact cost.
int local_polish(const Objective& objective, FusionPlan& plan,
                 double* cost = nullptr, const Telemetry* telemetry = nullptr,
                 SearchControl* control = nullptr);

/// Periodic checkpointing of an HGGA run (see search/checkpoint.hpp for the
/// on-disk format). With `resume` set, the run restarts from the state in
/// `file` and continues to a best that is bit-identical to an uninterrupted
/// run with the same seed.
struct HggaCheckpointing {
  std::string file;           ///< empty → checkpointing disabled
  int every_generations = 5;  ///< write cadence
  bool resume = false;        ///< load `file` before the first generation
};

class Hgga {
 public:
  Hgga(const Objective& objective, HggaConfig config);

  /// Runs the search. `control` (optional) enforces deadline / evaluation /
  /// fault budgets and collects best-so-far; `checkpointing` (optional)
  /// enables periodic state snapshots and resume; `telemetry` (optional)
  /// records per-generation metrics/events and heartbeats — a null pointer
  /// costs one branch per generation (see telemetry/telemetry.hpp).
  SearchResult run(SearchControl* control = nullptr,
                   const HggaCheckpointing* checkpointing = nullptr,
                   const Telemetry* telemetry = nullptr);

  /// What crossover did in one generation, emitted as the search.breed.*
  /// counters: plain integers, counted whether or not a sink is attached.
  struct BreedCounts {
    long orphans = 0;          ///< kernels re-inserted after their group dissolved
    long host_checks = 0;      ///< host-plus-orphan groups checked for legality
    long hosts_legal = 0;      ///< ... of which were legal
    long cyclic_children = 0;  ///< children whose group quotient had a cycle
    long cycle_splits = 0;     ///< groups break_cycles split in those children
  };

 private:
  const Objective& objective_;
  HggaConfig config_;

  /// Reused breeding and evaluation workspace (both run serially, so one set
  /// is enough): group scratch lists and small id buffers that keep their
  /// capacity across generations — after warm-up, breeding a child performs
  /// no heap allocation beyond what the objective's miss path needs.
  struct Scratch {
    FlatGroupList injected;         ///< groups injected from parent b
    FlatGroupList groups;           ///< the child's group set under assembly
    std::vector<int> fused_groups;  ///< parent-b fused group indices
    std::vector<char> taken;        ///< kernels claimed by injected groups
    std::vector<KernelId> orphans;  ///< members of dissolved groups
    std::vector<int> owner;         ///< kernel -> index in `groups` (-1: unplaced orphan)
    std::vector<int> hosts;         ///< groups holding a same-phase sharing neighbour of one orphan
    std::vector<int> anchors;       ///< injected groups and groups that took an orphan
    std::vector<KernelId> candidate;  ///< host-group trial for one orphan
    LaunchDescriptor built;         ///< the trial's descriptor, from check_extension to group_cost
    std::vector<KernelId> members;  ///< merge/move member scratch (mutate)
    std::vector<FusionPlan> batch;  ///< dirty offspring plans (evaluate)
    std::vector<std::uint64_t> plan_keys;  ///< per-plan group-fingerprint sums (diversity)
    BreedCounts breed;              ///< this generation's crossover counts
  };
  mutable Scratch scratch_;

  void make_random(Rng& rng, Individual& out) const;
  /// Scores every not-yet-costed individual (cost < 0) in one
  /// Objective::plan_costs batch.
  void evaluate_offspring(std::vector<Individual>& population) const;
  void crossover(const Individual& a, const Individual& b, Individual& child,
                 Rng& rng, const Telemetry* telemetry) const;
  /// Returns the number of mutation operators actually applied (0..3).
  int mutate(Individual& individual, Rng& rng, const Telemetry* telemetry) const;
  const Individual& tournament(const std::vector<Individual>& pop, Rng& rng) const;
};

}  // namespace kf
