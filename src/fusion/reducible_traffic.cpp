#include "fusion/reducible_traffic.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "fusion/legality.hpp"
#include "fusion/transformer.hpp"
#include "graph/array_expansion.hpp"
#include "gpu/traffic_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace kf {
namespace {

/// A device so large that only precedence/connectivity constrain fusion.
DeviceSpec unbounded_device() {
  DeviceSpec d = DeviceSpec::k20x();
  d.name = "unbounded";
  d.smem_per_smx = 1L << 40;
  d.regs_per_smx = 1L << 40;
  d.max_regs_per_thread = 1 << 24;
  return d;
}

std::uint64_t group_key(const std::vector<KernelId>& sorted_group) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (KernelId k : sorted_group) h = mix64(h ^ (static_cast<std::uint64_t>(k) + 1));
  return h;
}

}  // namespace

ReducibleTrafficReport reducible_traffic(const Program& input, bool expand) {
  const Program program = expand ? expand_arrays(input).program : input;

  ReducibleTrafficReport report;
  report.original_bytes = program_traffic(program).gmem_total();

  const LegalityChecker checker(program, unbounded_device());
  FusionPlan plan(program.num_kernels());

  FusedKernelBuilder builder(program);
  std::unordered_map<std::uint64_t, double> bytes_cache;
  auto group_bytes = [&](std::vector<KernelId> group) {
    std::sort(group.begin(), group.end());
    const std::uint64_t key = group_key(group);
    const auto it = bytes_cache.find(key);
    if (it != bytes_cache.end()) return it->second;
    const double bytes = compute_traffic(program, builder.build(group)).gmem_total();
    bytes_cache.emplace(key, bytes);
    return bytes;
  };
  // Merged-pair evaluation cache: (key_a ^ rot(key_b)) -> saving, or NaN
  // for illegal merges. Keys depend only on member sets, so entries stay
  // valid across rounds.
  std::unordered_map<std::uint64_t, double> pair_cache;
  std::set<std::uint64_t> blacklisted;  // unschedulable merges

  // Greedy: repeatedly apply the legal merge that saves the most traffic.
  // Only sharing-connected pairs can save anything, so candidates come
  // from the sharing graph.
  bool progress = true;
  while (progress) {
    progress = false;
    double best_saving = 1e-9;
    int best_a = -1;
    int best_b = -1;
    for (int a = 0; a < plan.num_groups(); ++a) {
      for (int b = a + 1; b < plan.num_groups(); ++b) {
        std::vector<KernelId> ga(plan.group(a).begin(), plan.group(a).end());
        std::vector<KernelId> gb(plan.group(b).begin(), plan.group(b).end());
        // Quick reject: some member of a must share an array with some
        // member of b for the merge to be connected (and to save traffic).
        bool touches = false;
        for (KernelId ka : ga) {
          for (KernelId kb : gb) {
            if (checker.sharing().direct_share(ka, kb)) {
              touches = true;
              break;
            }
          }
          if (touches) break;
        }
        if (!touches) continue;

        std::sort(ga.begin(), ga.end());
        std::sort(gb.begin(), gb.end());
        const std::uint64_t pair_key =
            group_key(ga) ^ (group_key(gb) << 1 | group_key(gb) >> 63);
        if (blacklisted.contains(pair_key)) continue;

        double saving;
        const auto it = pair_cache.find(pair_key);
        if (it != pair_cache.end()) {
          saving = it->second;
        } else {
          std::vector<KernelId> merged = ga;
          merged.insert(merged.end(), gb.begin(), gb.end());
          std::sort(merged.begin(), merged.end());
          if (!checker.group_is_legal(merged)) {
            saving = -1.0;
          } else {
            saving = group_bytes(ga) + group_bytes(gb) - group_bytes(merged);
          }
          pair_cache.emplace(pair_key, saving);
        }
        if (saving > best_saving) {
          best_saving = saving;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best_a >= 0) {
      if (checker.merge_is_schedulable(plan, best_a, best_b)) {
        plan.merge_groups(best_a, best_b);
        progress = true;
      } else {
        std::vector<KernelId> ga(plan.group(best_a).begin(), plan.group(best_a).end());
        std::vector<KernelId> gb(plan.group(best_b).begin(), plan.group(best_b).end());
        std::sort(ga.begin(), ga.end());
        std::sort(gb.begin(), gb.end());
        blacklisted.insert(group_key(ga) ^
                           (group_key(gb) << 1 | group_key(gb) >> 63));
        progress = true;  // other pairs may still merge
      }
    }
  }

  double fused = 0.0;
  for (int g = 0; g < plan.num_groups(); ++g) {
    fused += group_bytes({plan.group(g).begin(), plan.group(g).end()});
  }
  report.fused_bytes = fused;
  report.reducible_fraction =
      report.original_bytes > 0.0 ? 1.0 - fused / report.original_bytes : 0.0;
  report.max_plan = std::move(plan);
  return report;
}

}  // namespace kf
