// SearchDriver — the resilient front door to every search method.
//
// The paper's HGGA searches run millions of objective evaluations over
// hours of wall time (Table VI); at that scale a production system must
// (a) enforce wall-clock and evaluation budgets, (b) survive throwing
// candidate evaluations, and (c) always hand back a legal best-so-far
// plan. The driver wraps hgga/greedy/annealing/random/exhaustive behind
// one entry point that guarantees exactly that:
//
//   * SearchControl carries the budgets. Every method polls should_stop()
//     in its main loop and reports improving plans through note_best(), so
//     an early stop (deadline, evaluation budget, fault storm) unwinds
//     cleanly with the method's own best-so-far.
//   * Faults are quarantined inside the Objective (see objective.hpp); the
//     control turns a configurable fault count into a FaultStorm stop.
//   * If a method still manages to throw, the driver falls back to the
//     best plan the control observed — or the always-legal identity plan —
//     instead of propagating.
//   * HGGA runs can checkpoint periodically and resume bit-identically
//     (see checkpoint.hpp).
//
// Every result carries a FaultReport: the run's faults, the quarantined
// member sets, and the stop reason.
#pragma once

#include <mutex>

#include "search/annealing.hpp"
#include "search/exhaustive.hpp"
#include "search/greedy.hpp"
#include "search/hgga.hpp"
#include "search/random_search.hpp"
#include "util/stopwatch.hpp"

namespace kf {

enum class SearchMethod { Hgga, Greedy, Annealing, Random, Exhaustive };

const char* to_string(SearchMethod method) noexcept;
/// Parses "hgga" | "greedy" | "annealing" | "random" | "exhaustive".
/// Throws kf::PreconditionError on anything else.
SearchMethod search_method_from_string(const std::string& text);

/// Budget enforcement and best-so-far tracking shared by all methods.
/// Thread-safe: HGGA evaluates populations under OpenMP.
class SearchControl {
 public:
  struct Limits {
    double deadline_s = 0.0;   ///< <= 0: no wall-clock deadline
    long max_evaluations = 0;  ///< <= 0: no evaluation budget
    long max_faults = 0;       ///< <= 0: no fault-storm threshold
  };

  SearchControl(const Objective& objective, Limits limits);

  /// Optional observability: the latching poll emits one "budget_stop"
  /// event and the stop-reason counter when a budget trips. Null disables.
  void set_telemetry(const Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  /// Polled by search loops: true once any budget is exhausted. The first
  /// exceeded budget latches the stop reason; later polls return true
  /// without re-deciding.
  bool should_stop() noexcept;

  bool stopped() const noexcept { return stopped_.load(std::memory_order_acquire); }

  /// Converged unless a budget latched a stop.
  StopReason reason() const noexcept;

  double elapsed_s() const noexcept { return watch_.elapsed_s(); }

  /// Evaluations charged to this run (objective calls since construction).
  long evaluations_used() const noexcept;

  // ---- best-so-far tracking (for post-throw recovery) ----
  void note_best(const FusionPlan& plan, double cost);
  bool has_best() const;
  FusionPlan best_plan() const;
  double best_cost() const;

 private:
  const Objective& objective_;
  Limits limits_;
  const Telemetry* telemetry_ = nullptr;
  Stopwatch watch_;
  long base_evaluations_ = 0;
  long base_faults_ = 0;
  std::atomic<bool> stopped_{false};
  std::atomic<int> reason_{0};  // StopReason, valid when stopped_

  mutable std::mutex best_mutex_;
  FusionPlan best_;
  double best_cost_ = 0.0;
  bool has_best_ = false;
};

/// The epilogue every search method and SearchDriver's recovery end with.
/// Constructed as a run starts, it keeps the objective's counters then, so
/// a result counts only its own run's work even on an objective that served
/// earlier runs (PlanServer keeps one per key across requests and retries).
class SearchEpilogue {
 public:
  explicit SearchEpilogue(const Objective& objective);

  double elapsed_s() const noexcept { return watch_.elapsed_s(); }
  /// Objective calls since the run started.
  long evaluations() const noexcept { return objective_.evaluations() - evaluations_; }

  /// Canonicalizes `result.best` and fills the baseline, this run's
  /// evaluations, model evaluations and faults, the runtime, and the fault
  /// report (stop reason from `control`, Converged when it is null).
  SearchResult finish(SearchResult result, const SearchControl* control) const;

 private:
  const Objective& objective_;
  Stopwatch watch_;
  long evaluations_ = 0;
  long model_evaluations_ = 0;
  long faults_ = 0;
};

/// Everything a resilient search run needs; method-specific knobs ride
/// along so one config drives any method.
struct DriverConfig {
  SearchMethod method = SearchMethod::Hgga;
  SearchControl::Limits limits;

  HggaConfig hgga;
  AnnealingConfig annealing;
  RandomSearchConfig random;

  HggaCheckpointing checkpointing;  ///< HGGA only; file empty → disabled

  /// Observability context threaded through the run (search_start/_end and
  /// budget_stop events here; per-generation events inside HGGA; eval
  /// metrics and quarantine events inside the Objective). Must outlive the
  /// driver; null (the default) disables all instrumentation.
  const Telemetry* telemetry = nullptr;
};

class SearchDriver {
 public:
  SearchDriver(const Objective& objective, DriverConfig config);

  /// Runs the configured method under the configured budgets. Never throws
  /// on candidate faults or budget stops; always returns a result whose
  /// `best` is a legal plan and whose fault_report explains the run.
  /// Checkpoint problems DO throw: an unwritable path before the search
  /// starts, and a missing, corrupt or mismatched checkpoint under resume
  /// as the CheckpointError Hgga::run raises before its first generation.
  SearchResult run();

 private:
  const Objective& objective_;
  DriverConfig config_;

  void validate_checkpointing() const;
  SearchResult dispatch(SearchControl& control);
  SearchResult recover(const SearchEpilogue& epilogue, SearchControl& control) const;
};

}  // namespace kf
