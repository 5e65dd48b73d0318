// Oracles for the incremental greedy search, local polish and crossover's
// shortcuts.
//
// The schedulability queries (merge_is_schedulable / move_is_schedulable)
// are checked against cyclic_groups on the materialized edit, and
// crossover's host check (check_extension, offered same-phase hosts only)
// and anchored cycle search (cycle_from) against check_group and
// cyclic_groups. greedy_search
// and local_polish are checked against the full-rescan implementations they
// replaced, copied verbatim below as references: same plans, same cost
// bits, same edits, the same model evaluations and faults, and the same
// provenance — bare and under objective fault injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "apps/cloverleaf.hpp"
#include "apps/homme.hpp"
#include "apps/motivating_example.hpp"
#include "apps/scale_les.hpp"
#include "apps/testsuite.hpp"
#include "model/proposed_model.hpp"
#include "search/driver.hpp"
#include "search/greedy.hpp"
#include "search/hgga.hpp"
#include "search/population.hpp"
#include "serve/plan_context.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace kf {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// ---------- references: the full-rescan implementations ----------

struct ReferenceResult {
  FusionPlan plan;
  double cost = 0.0;
};

/// Greedy as it was before the pair table: every pass re-checks every pair
/// on a copied plan, polling `control` before each row.
ReferenceResult reference_greedy(const Objective& objective,
                                 const Telemetry* telemetry,
                                 SearchControl* control = nullptr) {
  const bool provenance = telemetry != nullptr && telemetry->wants_decisions();
  const LegalityChecker& checker = objective.checker();
  FusionPlan plan(checker.program().num_kernels());
  if (control != nullptr) control->note_best(plan, objective.plan_cost(plan));
  std::vector<double> group_cost_s(static_cast<std::size_t>(plan.num_groups()));
  for (int g = 0; g < plan.num_groups(); ++g) {
    group_cost_s[static_cast<std::size_t>(g)] =
        objective.group_cost(plan.group(g)).cost_s;
  }
  bool progress = true;
  while (progress && (control == nullptr || !control->should_stop())) {
    progress = false;
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
      group_cost_s[static_cast<std::size_t>(std::min(best_a, best_b))] = best_merged_cost;
      group_cost_s.erase(group_cost_s.begin() + std::max(best_a, best_b));
      if (control != nullptr) {
        double total = 0.0;
        for (double c : group_cost_s) total += c;
        control->note_best(plan, total);
      }
    }
  }
  plan.canonicalize();
  const double cost = objective.plan_cost(plan);
  return {std::move(plan), cost};
}

/// Polish as it was before in-order pricing: every candidate is a copied
/// plan priced with a full plan_cost.
int reference_polish(const Objective& objective, FusionPlan& plan,
                     double* cost_out, const Telemetry* telemetry) {
  const LegalityChecker& checker = objective.checker();
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

// ---------- rigs ----------

/// Program, device and referees; each run builds its own Objective so that
/// cache misses (model evaluations) are comparable run against run.
struct Rig {
  Program program;
  DeviceSpec device;
  TimingSimulator sim;
  LegalityChecker checker;
  ProposedModel model;

  Rig(Program p, DeviceSpec d)
      : program(std::move(p)),
        device(std::move(d)),
        sim(device),
        checker(program, device),
        model(device) {}

  std::unique_ptr<Objective> objective() const {
    return std::make_unique<Objective>(checker, model, sim);
  }
};

Program suite_program(int kernels, int sharing, std::uint64_t seed = 1) {
  TestSuiteConfig config;
  config.kernels = kernels;
  config.arrays = 2 * kernels;
  config.sharing_set_size = sharing;
  config.seed = seed;
  return make_testsuite_program(config);
}

/// The serve-mixed benchmark's twelve Table V programs, then rk18 and fig3.
constexpr int kOraclePrograms = 14;
Program oracle_program(int index) {
  if (index == 12) return scale_les_rk18();
  if (index == 13) return motivating_example();
  constexpr int kSizes[] = {20, 30, 40, 50};
  constexpr int kSharing[] = {2, 4, 8};
  return suite_program(kSizes[index / 3], kSharing[index % 3]);
}

std::vector<DeviceSpec> oracle_devices() {
  return {DeviceSpec::k20x(), DeviceSpec::k40(), DeviceSpec::gtx750ti()};
}

// ---------- provenance comparison ----------

using DecisionKey = std::tuple<int, bool, std::vector<KernelId>, std::uint64_t, std::string>;

DecisionKey key_of(const DecisionLog::Decision& d) {
  const int held = std::min<int>(d.member_count, DecisionLog::kMaxMembers);
  std::vector<KernelId> members(d.members, d.members + held);
  members.push_back(d.member_count);
  return {static_cast<int>(d.site), d.accepted, std::move(members),
          bits(d.cost_delta_s), d.dominant};
}

std::vector<DecisionKey> accepted_of(const DecisionLog& log) {
  std::vector<DecisionKey> out;
  for (const auto& d : log.snapshot()) {
    if (d.accepted) out.push_back(key_of(d));
  }
  return out;
}

std::set<DecisionKey> greedy_rejects_of(const DecisionLog& log, long* count) {
  std::set<DecisionKey> out;
  *count = 0;
  for (const auto& d : log.snapshot()) {
    if (d.site != DecisionLog::Site::GreedyReject) continue;
    out.insert(key_of(d));
    ++*count;
  }
  return out;
}

// ---------- schedulability sweep ----------

TEST(IncrementalSchedulability, MergeAndMoveQueriesMatchCyclicGroups) {
  long merges_checked = 0;
  long merges_refused = 0;
  long moves_checked = 0;
  long moves_refused = 0;
  for (const int kernels : {20, 50, 70, 130}) {
    const Program program = suite_program(kernels, 4, 11 + kernels);
    const LegalityChecker checker(program, DeviceSpec::k20x());
    Rng rng(static_cast<std::uint64_t>(kernels) * 7919);
    for (const double aggressiveness : {0.3, 0.6, 0.9}) {
      const FusionPlan plan = random_legal_plan(checker, rng, aggressiveness);
      ASSERT_TRUE(checker.plan_is_legal(plan));
      const int ng = plan.num_groups();
      for (int a = 0; a < ng; ++a) {
        for (int b = a + 1; b < ng; ++b) {
          std::vector<KernelId> merged(plan.group(a).begin(), plan.group(a).end());
          merged.insert(merged.end(), plan.group(b).begin(), plan.group(b).end());
          if (!checker.group_is_legal(merged)) continue;
          FusionPlan materialized = plan;
          materialized.merge_groups(a, b);
          const bool expected = checker.plan_is_schedulable(materialized);
          ASSERT_EQ(checker.merge_is_schedulable(plan, a, b), expected)
              << kernels << " kernels, merge " << a << "+" << b;
          ASSERT_EQ(checker.merge_is_schedulable(plan, b, a), expected);
          ++merges_checked;
          if (!expected) ++merges_refused;
        }
      }
      for (KernelId k = 0; k < plan.num_kernels(); ++k) {
        const int from = plan.group_of(k);
        for (int to = 0; to < ng; ++to) {
          if (to == from) continue;
          std::vector<KernelId> target(plan.group(to).begin(), plan.group(to).end());
          target.push_back(k);
          if (!checker.group_is_legal(target)) continue;
          for (const bool split_rest : {false, true}) {
            FusionPlan materialized = plan;
            materialized.move_kernel(k, to);
            // An emptied source group is erased; otherwise it keeps its index.
            if (split_rest && plan.group(from).size() > 1) {
              materialized.split_group(from);
            }
            const bool expected = checker.cyclic_groups(materialized).empty();
            ASSERT_EQ(checker.move_is_schedulable(plan, k, to, split_rest), expected)
                << kernels << " kernels, move " << k << " -> " << to
                << (split_rest ? " (rest split)" : "");
            ++moves_checked;
            if (!expected) ++moves_refused;
          }
        }
      }
    }
  }
  // The sweep must exercise both answers of both queries.
  EXPECT_GT(merges_refused, 0);
  EXPECT_LT(merges_refused, merges_checked);
  EXPECT_GT(moves_refused, 0);
  EXPECT_LT(moves_refused, moves_checked);
}

// ---------- crossover's shortcuts ----------

/// SCALE-LES, HOMME, rk18, CloverLeaf, fig3 and the serve-mixed benchmark's
/// twelve Table V programs; each test expands them as a search does.
std::vector<Program> shortcut_programs() {
  std::vector<Program> out = {scale_les(), homme(), scale_les_rk18(), cloverleaf(),
                              motivating_example()};
  for (int i = 0; i < 12; ++i) out.push_back(oracle_program(i));
  return out;
}

bool same_descriptor(const LaunchDescriptor& a, const LaunchDescriptor& b) {
  return a.name == b.name && a.members == b.members && a.pivot_arrays == b.pivot_arrays &&
         a.rocache_arrays == b.rocache_arrays && a.halo_radius == b.halo_radius &&
         a.recompute_halo == b.recompute_halo && a.barriers == b.barriers &&
         a.regs_per_thread == b.regs_per_thread &&
         a.smem_per_block_bytes == b.smem_per_block_bytes &&
         bits(a.flops_per_site) == bits(b.flops_per_site) &&
         bits(a.halo_flops_per_site) == bits(b.halo_flops_per_site);
}

TEST(CrossoverShortcuts, ExtensionCheckMatchesCheckGroup) {
  // Every group of random legal plans, grown by each sharing neighbour k
  // outside it: check_extension returns check_group's verdict and hands
  // over the same descriptor, and the grown group fails on phase exactly
  // when k lies in another phase than the group — the hosts crossover
  // skips, which check_group rejects before its memo.
  std::map<LegalityVerdict, long> verdicts;
  long handed_over = 0;
  int index = 0;
  for (const Program& raw : shortcut_programs()) {
    const PlanContext ctx(raw, DeviceSpec::k20x());
    const Program& program = ctx.expansion.program;
    // Fresh twin checkers (the plans come from the context's own): their
    // resource memos see the same groups in the same order, so both hand
    // over a descriptor or neither does.
    const LegalityChecker full(program, ctx.device);
    const LegalityChecker shortcut(program, ctx.device);
    Rng rng(1000 + static_cast<std::uint64_t>(index));
    for (const double aggressiveness : {0.3, 0.6, 0.9}) {
      const FusionPlan plan = random_legal_plan(ctx.checker, rng, aggressiveness);
      for (int g = 0; g < plan.num_groups(); ++g) {
        const auto group = plan.group(g);
        std::set<KernelId> outside;
        for (KernelId m : group) {
          for (KernelId n : full.sharing().neighbours(m)) {
            if (plan.group_of(n) != g) outside.insert(n);
          }
        }
        for (KernelId k : outside) {
          std::vector<KernelId> grown(group.begin(), group.end());
          grown.insert(std::lower_bound(grown.begin(), grown.end(), k), k);
          LaunchDescriptor want;
          LaunchDescriptor got;
          const LegalityVerdict expected = full.check_group(grown, &want);
          ASSERT_EQ(shortcut.check_extension(grown, k, &got), expected)
              << "program " << index << ", group " << g << " + kernel " << k;
          ASSERT_TRUE(same_descriptor(got, want))
              << "program " << index << ", group " << g << " + kernel " << k;
          ASSERT_EQ(expected == LegalityVerdict::PhaseMismatch,
                    program.kernel(k).phase != program.kernel(group[0]).phase)
              << "program " << index << ", group " << g << " + kernel " << k;
          ++verdicts[expected];
          if (!want.members.empty()) ++handed_over;
        }
      }
    }
    ++index;
  }
  // SCALE-LES's sharing graph links kernels across phase barriers, and the
  // sweep meets every verdict the shortcut can return except the rare
  // resource overflows; kinship never fails.
  EXPECT_GT(verdicts[LegalityVerdict::PhaseMismatch], 0);
  EXPECT_GT(verdicts[LegalityVerdict::NotConvex], 0);
  EXPECT_GT(verdicts[LegalityVerdict::Ok], 0);
  EXPECT_EQ(verdicts[LegalityVerdict::NotConnected], 0);
  EXPECT_GT(handed_over, 0);

  // The contract: strictly ascending, holding the added kernel.
  const PlanContext ctx(motivating_example(), DeviceSpec::k20x());
  const std::vector<KernelId> repeated = {0, 1, 1};
  const std::vector<KernelId> unsorted = {1, 0};
  EXPECT_THROW((void)ctx.checker.check_extension(repeated, 1), PreconditionError);
  EXPECT_THROW((void)ctx.checker.check_extension(unsorted, 1), PreconditionError);
  EXPECT_THROW((void)ctx.checker.check_extension(std::vector<KernelId>{0, 1}, 2),
               PreconditionError);
}

TEST(CrossoverShortcuts, AnchoredCycleSearchMatchesCyclicGroups) {
  // Children assembled as Hgga::crossover assembles them, except that an
  // orphan joins a random legal host (or stays alone) instead of the
  // cheapest: the anchors are the injected groups and every group that
  // took an orphan, and which host an orphan takes does not matter.
  long cyclic = 0;
  long acyclic = 0;
  int index = 0;
  for (const Program& raw : shortcut_programs()) {
    const PlanContext ctx(raw, DeviceSpec::k20x());
    const LegalityChecker& checker = ctx.checker;
    const int n = ctx.expansion.program.num_kernels();
    Rng rng(2000 + static_cast<std::uint64_t>(index));
    std::vector<FusionPlan> parents;
    for (int i = 0; i < 8; ++i) {
      parents.push_back(random_legal_plan(checker, rng, rng.next_double(0.3, 0.9)));
    }
    FlatGroupList groups;
    std::vector<int> anchors;
    std::vector<int> owner;
    std::vector<int> hosts;
    for (int pair = 0; pair < 40; ++pair) {
      const FusionPlan& a = parents[rng.next_below(parents.size())];
      const FusionPlan& b = parents[rng.next_below(parents.size())];
      std::vector<std::vector<KernelId>> injected;
      std::vector<int> fused;
      for (int g = 0; g < b.num_groups(); ++g) {
        if (b.group(g).size() >= 2) fused.push_back(g);
      }
      for (int g : fused) {
        if (rng.next_bool(0.5)) injected.emplace_back(b.group(g).begin(), b.group(g).end());
      }
      if (injected.empty() && !fused.empty()) {
        const auto g = b.group(fused[rng.next_below(fused.size())]);
        injected.emplace_back(g.begin(), g.end());
      }
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      for (const auto& g : injected) {
        for (KernelId k : g) taken[static_cast<std::size_t>(k)] = 1;
      }
      groups.clear();
      anchors.clear();
      std::vector<KernelId> orphans;
      for (int g = 0; g < a.num_groups(); ++g) {
        const auto group = a.group(g);
        const bool collides = std::any_of(group.begin(), group.end(), [&](KernelId k) {
          return taken[static_cast<std::size_t>(k)];
        });
        if (!collides) {
          groups.append(group);
          continue;
        }
        for (KernelId k : group) {
          if (!taken[static_cast<std::size_t>(k)]) orphans.push_back(k);
        }
      }
      for (const auto& g : injected) {
        anchors.push_back(groups.size());
        groups.append(g);
      }
      owner.assign(static_cast<std::size_t>(n), -1);
      for (int g = 0; g < groups.size(); ++g) {
        for (KernelId k : groups.group(g)) owner[static_cast<std::size_t>(k)] = g;
      }
      rng.shuffle(orphans);
      for (KernelId k : orphans) {
        hosts.clear();
        for (KernelId nb : checker.sharing().neighbours(k)) {
          const int g = owner[static_cast<std::size_t>(nb)];
          if (g < 0) continue;
          std::vector<KernelId> grown(groups.group(g).begin(), groups.group(g).end());
          grown.insert(std::lower_bound(grown.begin(), grown.end(), k), k);
          if (checker.check_group(grown) == LegalityVerdict::Ok) hosts.push_back(g);
        }
        if (!hosts.empty() && rng.next_bool(0.8)) {
          const int g = hosts[rng.next_below(hosts.size())];
          groups.insert_member(g, k);
          owner[static_cast<std::size_t>(k)] = g;
          anchors.push_back(g);
        } else {
          groups.append_singleton(k);
          owner[static_cast<std::size_t>(k)] = groups.size() - 1;
        }
      }
      FusionPlan child;
      child.assign_flat(n, groups.members(), groups.offsets());
      ASSERT_EQ(child.num_groups(), groups.size());
      const bool expected = !checker.cyclic_groups(child).empty();
      ASSERT_EQ(checker.cycle_from(child, anchors), expected)
          << "program " << index << ", pair " << pair;
      // Rooted at every group, the search answers for the whole quotient.
      std::vector<int> every(static_cast<std::size_t>(child.num_groups()));
      std::iota(every.begin(), every.end(), 0);
      ASSERT_EQ(checker.cycle_from(child, every), expected)
          << "program " << index << ", pair " << pair;
      ++(expected ? cyclic : acyclic);
    }
    ++index;
  }
  EXPECT_GT(cyclic, 0);
  EXPECT_GT(acyclic, 0);
}

// ---------- greedy and polish against the references ----------

/// (program index, device index)
class IncrementalOracle : public ::testing::TestWithParam<std::tuple<int, int>> {};

struct RunOutcome {
  std::string plan;
  std::uint64_t cost_bits = 0;
  int edits = 0;
  long model_evaluations = 0;
  long faults = 0;
};

void expect_same(const RunOutcome& got, const RunOutcome& want, const std::string& label) {
  EXPECT_EQ(got.plan, want.plan) << label;
  EXPECT_EQ(got.cost_bits, want.cost_bits) << label;
  EXPECT_EQ(got.edits, want.edits) << label;
  EXPECT_EQ(got.model_evaluations, want.model_evaluations) << label;
  EXPECT_EQ(got.faults, want.faults) << label;
}

/// Polishes `start` with both implementations, each on a fresh objective.
void expect_same_polish(const Rig& rig, const FusionPlan& start, bool with_log,
                        const std::string& label) {
  DecisionLog ref_log(1 << 16);
  DecisionLog new_log(1 << 16);
  Telemetry ref_tel;
  Telemetry new_tel;
  ref_tel.decisions = &ref_log;
  new_tel.decisions = &new_log;

  RunOutcome want;
  {
    const auto objective = rig.objective();
    FusionPlan plan = start;
    double cost = 0.0;
    want.edits = reference_polish(*objective, plan, &cost, with_log ? &ref_tel : nullptr);
    want.plan = plan.to_string();
    want.cost_bits = bits(cost);
    want.model_evaluations = objective->model_evaluations();
    want.faults = objective->faults();
  }
  RunOutcome got;
  {
    const auto objective = rig.objective();
    FusionPlan plan = start;
    double cost = 0.0;
    got.edits = local_polish(*objective, plan, &cost, with_log ? &new_tel : nullptr);
    got.plan = plan.to_string();
    got.cost_bits = bits(cost);
    got.model_evaluations = objective->model_evaluations();
    got.faults = objective->faults();
    EXPECT_TRUE(rig.checker.plan_is_legal(plan)) << label;
    EXPECT_EQ(bits(objective->plan_cost(plan)), got.cost_bits) << label;
  }
  expect_same(got, want, label);
  if (with_log) {
    EXPECT_EQ(accepted_of(new_log), accepted_of(ref_log)) << label;
  }
}

TEST_P(IncrementalOracle, GreedyAndPolishMatchTheReferences) {
  const auto [index, d] = GetParam();
  const std::vector<DeviceSpec> devices = oracle_devices();
  for (const bool faulty : {false, true}) {
    std::optional<ScopedFaultInjection> arm;
    if (faulty) arm.emplace(FaultPlan{FaultSite::Objective, 0.3, 21});
    const Rig rig(oracle_program(index), devices[static_cast<std::size_t>(d)]);
    const std::string label = std::string(faulty ? "faulty " : "bare ") +
                              rig.program.name() + " on " + rig.device.name;
    // Greedy, bare and with a decision log attached.
    for (const bool with_log : {false, true}) {
      DecisionLog ref_log(1 << 18);
      DecisionLog new_log(1 << 18);
      Telemetry ref_tel;
      Telemetry new_tel;
      ref_tel.decisions = &ref_log;
      new_tel.decisions = &new_log;
      RunOutcome want;
      {
        const auto objective = rig.objective();
        const ReferenceResult ref =
            reference_greedy(*objective, with_log ? &ref_tel : nullptr);
        want.plan = ref.plan.to_string();
        want.cost_bits = bits(ref.cost);
        want.model_evaluations = objective->model_evaluations();
        want.faults = objective->faults();
      }
      RunOutcome got;
      {
        const auto objective = rig.objective();
        const SearchResult result =
            greedy_search(*objective, nullptr, with_log ? &new_tel : nullptr);
        got.plan = result.best.to_string();
        got.cost_bits = bits(result.best_cost_s);
        got.model_evaluations = result.model_evaluations;
        got.faults = objective->faults();
      }
      expect_same(got, want, label + " greedy");
      if (with_log) {
        ASSERT_EQ(ref_log.dropped(), 0);
        EXPECT_EQ(accepted_of(new_log), accepted_of(ref_log)) << label;
        long ref_count = 0;
        long new_count = 0;
        const auto ref_rejects = greedy_rejects_of(ref_log, &ref_count);
        const auto new_rejects = greedy_rejects_of(new_log, &new_count);
        EXPECT_EQ(new_rejects, ref_rejects) << label;
        // Once per pair: the new stream repeats no rejection.
        EXPECT_EQ(new_count, static_cast<long>(new_rejects.size())) << label;
      }
    }

    const int n = rig.program.num_kernels();
    expect_same_polish(rig, FusionPlan(n), true, label + " polish from identity");
    // The ladder's shape: the next device's greedy plan, repaired here.
    const Rig other(oracle_program(index),
                    devices[static_cast<std::size_t>(d + 1) % devices.size()]);
    FusionPlan stored = greedy_search(*other.objective()).best;
    if (repair_plan(rig.checker, stored) > 0) stored.canonicalize();
    expect_same_polish(rig, stored, false, label + " polish from a stored plan");
    Rng rng(0x9e11 + static_cast<std::uint64_t>(index) * 31 + static_cast<std::uint64_t>(d));
    for (int i = 0; i < 20; ++i) {
      const FusionPlan start = random_legal_plan(rig.checker, rng, 0.2 + 0.04 * i);
      expect_same_polish(rig, start, false,
                         label + " polish from random plan " + std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ServeMixedRk18Fig3, IncrementalOracle,
                         ::testing::Combine(::testing::Range(0, kOraclePrograms),
                                            ::testing::Range(0, 3)));

// ---------- a budget that trips mid-pass ----------

TEST(IncrementalGreedy, FaultStormStopsWhereTheFullRescanStops) {
  // Faults are a pure function of the member set, so a fault threshold
  // trips at the same query in both implementations: anywhere in a pass,
  // including the row just after the last union's. Every threshold up to
  // the run's total is tried; the stopped plan and best-so-far must match.
  const ScopedFaultInjection arm(FaultPlan{FaultSite::Objective, 0.3, 21});
  long trips = 0;
  for (const int index : {1, 4, 10, 12}) {
    for (const DeviceSpec& device : oracle_devices()) {
      const Rig rig(oracle_program(index), device);
      const std::string label = rig.program.name() + " on " + rig.device.name;
      long total_faults = 0;
      {
        const auto objective = rig.objective();
        greedy_search(*objective);
        total_faults = objective->faults();
      }
      for (long threshold = 1; threshold <= total_faults; ++threshold) {
        SearchControl::Limits limits;
        limits.max_faults = threshold;
        RunOutcome want;
        std::string want_best;
        std::uint64_t want_best_bits = 0;
        {
          const auto objective = rig.objective();
          SearchControl control(*objective, limits);
          const ReferenceResult ref = reference_greedy(*objective, nullptr, &control);
          want.plan = ref.plan.to_string();
          want.cost_bits = bits(ref.cost);
          want.model_evaluations = objective->model_evaluations();
          want.faults = objective->faults();
          want_best = control.best_plan().to_string();
          want_best_bits = bits(control.best_cost());
          if (control.stopped()) ++trips;
        }
        RunOutcome got;
        {
          const auto objective = rig.objective();
          SearchControl control(*objective, limits);
          const SearchResult result = greedy_search(*objective, &control);
          got.plan = result.best.to_string();
          got.cost_bits = bits(result.best_cost_s);
          got.model_evaluations = result.model_evaluations;
          got.faults = result.fault_report.faults;
          EXPECT_EQ(control.best_plan().to_string(), want_best) << label;
          EXPECT_EQ(bits(control.best_cost()), want_best_bits) << label;
        }
        expect_same(got, want, label + " threshold " + std::to_string(threshold));
      }
    }
  }
  EXPECT_GT(trips, 0);
}

// ---------- the polish rung's deadline ----------

TEST(LocalPolishControl, ExpiredControlMakesNoEditAndReturnsTheExactCost) {
  const Rig rig(suite_program(30, 4), DeviceSpec::k20x());
  const auto objective = rig.objective();
  FusionPlan plan(rig.program.num_kernels());
  SearchControl::Limits limits;
  limits.deadline_s = 1e-9;
  SearchControl control(*objective, limits);
  while (!control.should_stop()) {
  }
  double cost = 0.0;
  const int edits = local_polish(*objective, plan, &cost, nullptr, &control);
  EXPECT_EQ(edits, 0);
  EXPECT_EQ(plan, FusionPlan(rig.program.num_kernels()));
  EXPECT_EQ(bits(cost), bits(objective->plan_cost(plan)));
  // Without the control the same plan has improving edits to make.
  EXPECT_GT(local_polish(*objective, plan, &cost), 0);
}

TEST(LocalPolishControl, RefusesAnIllegalPlan) {
  const Rig rig(suite_program(20, 4), DeviceSpec::k20x());
  const auto objective = rig.objective();
  const int n = rig.program.num_kernels();
  KernelId partner = 1;
  while (partner < n && rig.checker.group_is_legal(std::vector<KernelId>{0, partner})) {
    ++partner;
  }
  ASSERT_LT(partner, n);
  FusionPlan plan(n);
  plan.move_kernel(partner, 0);
  ASSERT_FALSE(rig.checker.plan_is_legal(plan));
  EXPECT_THROW(local_polish(*objective, plan), PreconditionError);
}

}  // namespace
}  // namespace kf
