#include "search/driver.hpp"

#include <fstream>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace kf {

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::Converged: return "converged";
    case StopReason::Deadline: return "deadline";
    case StopReason::EvaluationBudget: return "evaluation-budget";
    case StopReason::FaultStorm: return "fault-storm";
  }
  return "?";
}

const char* to_string(SearchMethod method) noexcept {
  switch (method) {
    case SearchMethod::Hgga: return "hgga";
    case SearchMethod::Greedy: return "greedy";
    case SearchMethod::Annealing: return "annealing";
    case SearchMethod::Random: return "random";
    case SearchMethod::Exhaustive: return "exhaustive";
  }
  return "?";
}

SearchMethod search_method_from_string(const std::string& text) {
  if (text == "hgga") return SearchMethod::Hgga;
  if (text == "greedy") return SearchMethod::Greedy;
  if (text == "annealing") return SearchMethod::Annealing;
  if (text == "random") return SearchMethod::Random;
  if (text == "exhaustive") return SearchMethod::Exhaustive;
  throw PreconditionError(
      "unknown search method '" + text +
      "' (expected hgga|greedy|annealing|random|exhaustive)");
}

SearchControl::SearchControl(const Objective& objective, Limits limits)
    : objective_(objective),
      limits_(limits),
      base_evaluations_(objective.evaluations()),
      base_faults_(objective.faults()) {}

long SearchControl::evaluations_used() const noexcept {
  return objective_.evaluations() - base_evaluations_;
}

bool SearchControl::should_stop() noexcept {
  if (stopped_.load(std::memory_order_acquire)) return true;
  StopReason reason;
  if (limits_.deadline_s > 0.0 && watch_.elapsed_s() >= limits_.deadline_s) {
    reason = StopReason::Deadline;
  } else if (limits_.max_evaluations > 0 &&
             evaluations_used() >= limits_.max_evaluations) {
    reason = StopReason::EvaluationBudget;
  } else if (limits_.max_faults > 0 &&
             objective_.faults() - base_faults_ >= limits_.max_faults) {
    reason = StopReason::FaultStorm;
  } else {
    return false;
  }
  reason_.store(static_cast<int>(reason), std::memory_order_relaxed);
  stopped_.store(true, std::memory_order_release);
  // Latching poll: this branch runs exactly once per control, so the event
  // below fires once per tripped budget.
  if (telemetry_ != nullptr) {
    if (telemetry_->metrics != nullptr) {
      telemetry_->metrics->count("search.budget_stops", 1,
                                 {{"reason", to_string(reason)}});
    }
    if (telemetry_->wants_trace()) {
      const double elapsed = watch_.elapsed_s();
      const long used = evaluations_used();
      const long faults = objective_.faults() - base_faults_;
      telemetry_->trace->emit("budget_stop", [&](TraceEvent& e) {
        e.str("reason", to_string(reason))
            .num("elapsed_s", elapsed)
            .num("evaluations", static_cast<double>(used))
            .num("faults", static_cast<double>(faults));
      });
    }
  }
  return true;
}

StopReason SearchControl::reason() const noexcept {
  if (!stopped()) return StopReason::Converged;
  return static_cast<StopReason>(reason_.load(std::memory_order_relaxed));
}

void SearchControl::note_best(const FusionPlan& plan, double cost) {
  std::lock_guard<std::mutex> lock(best_mutex_);
  if (!has_best_ || cost < best_cost_) {
    best_ = plan;
    best_cost_ = cost;
    has_best_ = true;
  }
}

bool SearchControl::has_best() const {
  std::lock_guard<std::mutex> lock(best_mutex_);
  return has_best_;
}

FusionPlan SearchControl::best_plan() const {
  std::lock_guard<std::mutex> lock(best_mutex_);
  KF_REQUIRE(has_best_, "no best plan recorded");
  return best_;
}

double SearchControl::best_cost() const {
  std::lock_guard<std::mutex> lock(best_mutex_);
  KF_REQUIRE(has_best_, "no best plan recorded");
  return best_cost_;
}

SearchEpilogue::SearchEpilogue(const Objective& objective)
    : objective_(objective),
      evaluations_(objective.evaluations()),
      model_evaluations_(objective.model_evaluations()),
      faults_(objective.faults()) {}

SearchResult SearchEpilogue::finish(SearchResult result, const SearchControl* control) const {
  result.best.canonicalize();
  result.baseline_cost_s = objective_.baseline_cost();
  result.evaluations = evaluations();
  result.model_evaluations = objective_.model_evaluations() - model_evaluations_;
  result.runtime_s = watch_.elapsed_s();
  result.fault_report.faults = objective_.faults() - faults_;
  result.fault_report.quarantined = objective_.cache_stats().quarantined;
  result.fault_report.stop_reason =
      control != nullptr ? control->reason() : StopReason::Converged;
  return result;
}

SearchDriver::SearchDriver(const Objective& objective, DriverConfig config)
    : objective_(objective), config_(std::move(config)) {
  KF_REQUIRE(config_.limits.deadline_s >= 0.0, "deadline must be >= 0");
  KF_REQUIRE(config_.limits.max_evaluations >= 0, "evaluation budget must be >= 0");
  KF_REQUIRE(config_.limits.max_faults >= 0, "fault threshold must be >= 0");
  KF_REQUIRE(config_.checkpointing.file.empty() ||
                 config_.method == SearchMethod::Hgga,
             "checkpointing is only supported for the hgga method");
}

SearchResult SearchDriver::dispatch(SearchControl& control) {
  switch (config_.method) {
    case SearchMethod::Hgga: {
      const HggaCheckpointing* ckpt =
          config_.checkpointing.file.empty() ? nullptr : &config_.checkpointing;
      return Hgga(objective_, config_.hgga).run(&control, ckpt, config_.telemetry);
    }
    case SearchMethod::Greedy:
      return greedy_search(objective_, &control, config_.telemetry);
    case SearchMethod::Annealing:
      return annealing_search(objective_, config_.annealing, &control);
    case SearchMethod::Random:
      return random_search(objective_, config_.random, &control);
    case SearchMethod::Exhaustive:
      return exhaustive_search(objective_, &control);
  }
  throw PreconditionError("unknown search method");
}

SearchResult SearchDriver::recover(const SearchEpilogue& epilogue,
                                   SearchControl& control) const {
  // Last line of defense: the method threw (a failure escaped quarantine).
  // Salvage the best plan the control observed — or fall back to the
  // always-legal identity plan — so the caller still gets a usable result.
  SearchResult result;
  if (control.has_best()) {
    result.best = control.best_plan();
    result.best_cost_s = control.best_cost();
  } else {
    result.best = FusionPlan(objective_.checker().program().num_kernels());
    result.best_cost_s = objective_.baseline_cost();
  }
  result.time_to_best_s = control.elapsed_s();
  result = epilogue.finish(std::move(result), &control);
  if (!control.stopped()) result.fault_report.stop_reason = StopReason::FaultStorm;
  return result;
}

void SearchDriver::validate_checkpointing() const {
  // Runs before the salvage net in run(): an unwritable path must abort the
  // search up front, not be swallowed by recover(), or it would silently
  // strip resume protection. A resumed checkpoint is validated by Hgga::run,
  // whose CheckpointError run() lets through.
  if (config_.checkpointing.file.empty() || config_.checkpointing.resume) return;
  const std::string tmp = config_.checkpointing.file + ".tmp";
  std::ofstream probe(tmp, std::ios::app);
  KF_CHECK(static_cast<bool>(probe), "cannot open checkpoint file '" << tmp << "' for writing");
}

SearchResult SearchDriver::run() {
  const Telemetry* t = config_.telemetry;
  SpanTracer::Scope run_span = scoped_span(t, "driver.run");
  {
    SpanTracer::Scope validate_span = scoped_span(t, "driver.validate");
    validate_checkpointing();
  }
  SearchControl control(objective_, config_.limits);
  control.set_telemetry(t);
  if (t != nullptr && t->wants_trace()) {
    t->trace->emit("search_start", [&](TraceEvent& e) {
      e.str("method", to_string(config_.method))
          .str("program", objective_.checker().program().name())
          .num("num_kernels", objective_.checker().program().num_kernels())
          .num("deadline_s", config_.limits.deadline_s)
          .num("max_evaluations", static_cast<double>(config_.limits.max_evaluations))
          .num("max_faults", static_cast<double>(config_.limits.max_faults));
    });
  }
  const SearchEpilogue epilogue(objective_);
  SearchResult result;
  bool recovered = false;
  try {
    SpanTracer::Scope dispatch_span = scoped_span(t, "driver.dispatch");
    result = dispatch(control);
  } catch (const CheckpointError&) {
    // A checkpoint the method rejects on resume (missing, corrupt, written
    // for another program or seed, or holding an illegal plan) is bad
    // input: abort, never degrade --resume into a salvaged identity plan.
    throw;
  } catch (const std::runtime_error&) {
    SpanTracer::Scope recover_span = scoped_span(t, "driver.recover");
    result = recover(epilogue, control);
    recovered = true;
  }
  if (t != nullptr) {
    if (t->metrics != nullptr) {
      t->metrics->count("search.runs", 1,
                        {{"stop_reason", to_string(result.fault_report.stop_reason)}});
    }
    if (t->wants_trace()) {
      t->trace->emit("search_end", [&](TraceEvent& e) {
        e.str("stop_reason", to_string(result.fault_report.stop_reason))
            .boolean("recovered", recovered)
            .num("best_cost_s", result.best_cost_s)
            .num("baseline_cost_s", result.baseline_cost_s)
            .num("speedup", result.projected_speedup())
            .num("generations", result.generations)
            .num("evaluations", static_cast<double>(result.evaluations))
            .num("faults", result.fault_report.faults)
            .num("runtime_s", result.runtime_s);
      });
    }
  }
  return result;
}

}  // namespace kf
