#include "search/greedy.hpp"

#include <algorithm>

#include "search/driver.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stopwatch.hpp"

namespace kf {

SearchResult greedy_search(const Objective& objective, SearchControl* control,
                           const Telemetry* telemetry) {
  Stopwatch watch;
  SpanTracer::Scope run_span = scoped_span(telemetry, "greedy.run");
  const bool provenance = telemetry != nullptr && telemetry->wants_decisions();
  const LegalityChecker& checker = objective.checker();
  const Program& program = checker.program();
  FusionPlan plan(program.num_kernels());
  if (control != nullptr) control->note_best(plan, objective.plan_cost(plan));

  // Per-row group costs, kept across passes: a merge only changes the two
  // rows it touches (the union lands at the smaller index, the larger row
  // dies — exactly merge_groups' semantics), so accepted merges recompute
  // nothing and every pass costs only its union queries.
  std::vector<double> group_cost_s(static_cast<std::size_t>(plan.num_groups()));
  for (int g = 0; g < plan.num_groups(); ++g) {
    group_cost_s[static_cast<std::size_t>(g)] =
        objective.group_cost(plan.group(g)).cost_s;
  }

  bool progress = true;
  while (progress && (control == nullptr || !control->should_stop())) {
    progress = false;
    SpanTracer::Scope pass_span = scoped_span(telemetry, "greedy.pass");
    double best_delta = -1e-15;
    int best_a = -1;
    int best_b = -1;
    double best_merged_cost = 0.0;
    std::vector<KernelId> best_members;
    for (int a = 0; a < plan.num_groups(); ++a) {
      if (control != nullptr && control->should_stop()) break;
      for (int b = a + 1; b < plan.num_groups(); ++b) {
        std::vector<KernelId> merged(plan.group(a).begin(), plan.group(a).end());
        merged.insert(merged.end(), plan.group(b).begin(), plan.group(b).end());
        std::sort(merged.begin(), merged.end());
        if (!checker.group_is_legal(merged)) continue;
        {
          FusionPlan trial = plan;
          trial.merge_groups(a, b);
          if (!checker.plan_is_schedulable(trial)) continue;
        }
        const Objective::GroupCost merged_cost = objective.group_cost(merged);
        if (!merged_cost.profitable) {
          // Provenance: an unprofitable candidate is a rejected merge —
          // constraint (1.1) said no. The dominant component stays unknown:
          // re-simulating every rejected pair would swamp the scan.
          if (provenance) {
            telemetry->decisions->record(
                DecisionLog::Site::GreedyReject, false, merged,
                merged_cost.cost_s - group_cost_s[static_cast<std::size_t>(a)] -
                    group_cost_s[static_cast<std::size_t>(b)]);
          }
          continue;
        }
        const double delta = group_cost_s[static_cast<std::size_t>(a)] +
                             group_cost_s[static_cast<std::size_t>(b)] -
                             merged_cost.cost_s;
        if (delta > best_delta) {
          best_delta = delta;
          best_a = a;
          best_b = b;
          best_merged_cost = merged_cost.cost_s;
          if (provenance) best_members = merged;
        }
      }
    }
    if (best_a >= 0) {
      if (provenance) {
        telemetry->decisions->record(
            DecisionLog::Site::GreedyMerge, true, best_members, -best_delta,
            objective.dominant_component(best_members));
      }
      plan.merge_groups(best_a, best_b);
      progress = true;
      // Mirror merge_groups on the rows: union cost at the surviving
      // (smaller) index, the other row erased.
      group_cost_s[static_cast<std::size_t>(std::min(best_a, best_b))] = best_merged_cost;
      group_cost_s.erase(group_cost_s.begin() + std::max(best_a, best_b));
      if (control != nullptr) {
        // Row order mirrors group order, so this sum is bitwise the value
        // plan_cost(plan) would return — without its n cache queries.
        double total = 0.0;
        for (double c : group_cost_s) total += c;
        control->note_best(plan, total);
      }
    }
  }

  SearchResult result;
  plan.canonicalize();
  result.best = plan;
  result.best_cost_s = objective.plan_cost(plan);
  result.baseline_cost_s = objective.baseline_cost();
  result.evaluations = objective.evaluations();
  result.model_evaluations = objective.model_evaluations();
  result.runtime_s = watch.elapsed_s();
  result.time_to_best_s = result.runtime_s;
  result.generations = 0;
  fill_fault_report(result, objective, control);
  return result;
}

}  // namespace kf
