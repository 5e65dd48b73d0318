#include "search/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "search/driver.hpp"
#include "telemetry/telemetry.hpp"

namespace kf {

namespace {

/// What greedy knows about merging two group slots. Legality, profitability
/// and the saving depend only on the two member sets, which change only
/// when one of the slots merges — and then the pair is priced again. Only
/// schedulability can change under other merges, and only from yes to no.
struct PairRecord {
  double saving = 0.0;       ///< slot costs minus the union's cost
  double merged_cost = 0.0;  ///< the union's group cost
  int checked_at = 0;        ///< merge count when schedulability was verified
  bool candidate = false;    ///< legal, schedulable when checked, profitable
};

}  // namespace

SearchResult greedy_search(const Objective& objective, SearchControl* control,
                           const Telemetry* telemetry) {
  const SearchEpilogue epilogue(objective);
  SpanTracer::Scope run_span = scoped_span(telemetry, "greedy.run");
  const bool provenance = telemetry != nullptr && telemetry->wants_decisions();
  const LegalityChecker& checker = objective.checker();
  const int n = checker.program().num_kernels();
  FusionPlan plan(n);
  if (control != nullptr) control->note_best(plan, objective.plan_cost(plan));

  // Group slots: slot s starts as kernel s's singleton, and a merge keeps the
  // earlier slot, so the live slots in ascending order are the plan's groups
  // in order. Slot costs and pair records (upper triangle, by slot) are kept
  // across passes.
  std::vector<double> slot_cost(static_cast<std::size_t>(n));
  for (int g = 0; g < n; ++g) {
    slot_cost[static_cast<std::size_t>(g)] = objective.group_cost(plan.group(g)).cost_s;
  }
  std::vector<int> live(static_cast<std::size_t>(n));
  std::iota(live.begin(), live.end(), 0);
  std::vector<PairRecord> pairs(static_cast<std::size_t>(n) *
                                static_cast<std::size_t>(std::max(n - 1, 0)) / 2);
  auto record = [&](int a, int b) -> PairRecord& {  // group indices, a < b
    const auto sa = static_cast<std::size_t>(live[static_cast<std::size_t>(a)]);
    const auto sb = static_cast<std::size_t>(live[static_cast<std::size_t>(b)]);
    return pairs[sb * (sb - 1) / 2 + sa];
  };
  auto cost_of = [&](int g) {
    return slot_cost[static_cast<std::size_t>(live[static_cast<std::size_t>(g)])];
  };

  int merges = 0;
  std::vector<KernelId> merged;
  LaunchDescriptor built;  // the union's descriptor, from check_group to group_cost
  // near[g] == 1: group g holds a sharing neighbour of the group last
  // marked. Groups are legal, hence connected, so two groups with no
  // sharing edge between them form a disconnected — illegal — union.
  std::vector<char> near;
  auto mark_neighbours = [&](int g) {
    near.assign(static_cast<std::size_t>(plan.num_groups()), 0);
    for (KernelId k : plan.group(g)) {
      for (KernelId nb : checker.sharing().neighbours(k)) {
        near[static_cast<std::size_t>(plan.group_of(nb))] = 1;
      }
    }
  };
  // Prices one pair against the current plan: legal, then schedulable, then
  // group_cost — the order that keeps group_cost's queries unchanged. `other`
  // is the pair's group that was not last passed to mark_neighbours.
  auto price = [&](int a, int b, int other) {
    PairRecord& r = record(a, b);
    r.checked_at = merges;
    r.candidate = false;
    if (!near[static_cast<std::size_t>(other)]) return;
    merged.assign(plan.group(a).begin(), plan.group(a).end());
    merged.insert(merged.end(), plan.group(b).begin(), plan.group(b).end());
    std::sort(merged.begin(), merged.end());
    if (checker.check_group(merged, &built) != LegalityVerdict::Ok ||
        !checker.merge_is_schedulable(plan, a, b)) {
      return;
    }
    const Objective::GroupCost union_cost = objective.group_cost(merged, &built);
    if (!union_cost.profitable) {
      // Provenance: an unprofitable candidate is a rejected merge —
      // constraint (1.1) said no. Recorded once, when the pair is priced;
      // the dominant component stays unknown (re-simulating every rejected
      // pair would swamp the scan).
      if (provenance) {
        telemetry->decisions->record(DecisionLog::Site::GreedyReject, false, merged,
                                     union_cost.cost_s - cost_of(a) - cost_of(b));
      }
      return;
    }
    r.candidate = true;
    r.saving = cost_of(a) + cost_of(b) - union_cost.cost_s;
    r.merged_cost = union_cost.cost_s;
  };

  int fresh = -1;  // group index of the last union; -1 before the first merge
  bool progress = true;
  while (progress && (control == nullptr || !control->should_stop())) {
    progress = false;
    SpanTracer::Scope pass_span = scoped_span(telemetry, "greedy.pass");
    const int ng = plan.num_groups();
    // Price what this pass has not seen, in lexicographic order: every pair
    // on the first pass, then only the last union's. The budget is polled
    // before each row, and a stop before row r leaves only rows < r in the
    // running, as in a full rescan. Rows past the union's have nothing to
    // price, so one poll stands for all of them.
    const int last_row = fresh < 0 ? ng - 1 : fresh;
    int rows = ng;
    if (fresh >= 0) mark_neighbours(fresh);
    for (int a = 0; a <= last_row; ++a) {
      if (control != nullptr && control->should_stop()) {
        rows = a;
        break;
      }
      if (fresh < 0 || a == fresh) {
        if (fresh < 0) mark_neighbours(a);
        for (int b = a + 1; b < ng; ++b) price(a, b, b);
      } else {
        price(a, fresh, a);
      }
    }
    if (rows == ng && last_row + 1 < ng && control != nullptr && control->should_stop()) {
      rows = last_row + 1;
    }

    // The winner: the largest saving above -1e-15, the lexicographically
    // first pair on ties. A pair verified before the last merge is checked
    // again before it wins; one that fails stays unschedulable for good.
    int best_a = -1;
    int best_b = -1;
    for (;;) {
      double best_saving = -1e-15;
      best_a = -1;
      for (int a = 0; a < rows; ++a) {
        for (int b = a + 1; b < ng; ++b) {
          const PairRecord& r = record(a, b);
          if (r.candidate && r.saving > best_saving) {
            best_saving = r.saving;
            best_a = a;
            best_b = b;
          }
        }
      }
      if (best_a < 0) break;
      PairRecord& r = record(best_a, best_b);
      if (r.checked_at == merges || checker.merge_is_schedulable(plan, best_a, best_b)) {
        break;
      }
      r.candidate = false;
    }
    if (best_a < 0) continue;

    const PairRecord winner = record(best_a, best_b);
    plan.merge_groups(best_a, best_b);
    if (provenance) {
      const auto members = plan.group(best_a);
      telemetry->decisions->record(DecisionLog::Site::GreedyMerge, true, members,
                                   -winner.saving, objective.dominant_component(members));
    }
    slot_cost[static_cast<std::size_t>(live[static_cast<std::size_t>(best_a)])] =
        winner.merged_cost;
    live.erase(live.begin() + best_b);
    ++merges;
    fresh = best_a;
    for (int g = 0; g < ng - 1; ++g) {
      if (g != fresh) record(std::min(g, fresh), std::max(g, fresh)).candidate = false;
    }
    progress = true;
    if (control != nullptr) {
      // Slot order is group order, so this sum is bitwise the value
      // plan_cost(plan) would return — without its n cache queries.
      double total = 0.0;
      for (int s : live) total += slot_cost[static_cast<std::size_t>(s)];
      control->note_best(plan, total);
    }
  }

  SearchResult result;
  plan.canonicalize();
  result.best = plan;
  result.best_cost_s = objective.plan_cost(plan);
  result.time_to_best_s = epilogue.elapsed_s();
  return epilogue.finish(std::move(result), control);
}

}  // namespace kf
