// Search objective — Eq. (1) with constraint (1.1) folded in.
//
// The cost of a plan is the sum of its groups' costs:
//   * singleton group  -> the original kernel's measured runtime P(K_i)
//     (from the timing simulator — the paper profiles originals once);
//   * fused group      -> the projection model's T(F_j);
//   * a fused group whose projection is infeasible, or not better than its
//     original sum (constraint 1.1), is *unprofitable*: it costs the
//     original sum times a small penalty so the search walks away from it
//     smoothly instead of cliff-rejecting.
//
// Group costs depend only on the member set, so they are memoised by a
// member-set fingerprint; the paper's 5.4e6-evaluation searches spend most
// evaluations on groups already seen. The memo is a sharded read-mostly
// cache (see group_cache.hpp): a hit takes one shared lock on one shard,
// and the fingerprint itself is an allocation-free commutative mix, so the
// OpenMP population loop never serializes on the hot path. Evaluation
// counters are exposed for the Table VI reproduction.
//
// Batch evaluation: plan_costs() scores a whole population at once —
// collect the distinct not-yet-cached fingerprints across every plan,
// evaluate only those under OpenMP, then score all plans with pure cache
// reads. Results are bit-identical to per-plan evaluation in any thread
// count: every group cost is a pure function of the member set, and each
// plan sums its groups in group order either way. group_cost, plan_cost and
// plan_costs are the only ways a search prices a plan.
//
// Fault isolation: at the paper's scale (hours, millions of evaluations) a
// single throwing candidate must not abort the run. With quarantine_faults
// set (the default), a runtime failure inside the projection model or the
// simulator charges the group the unprofitable penalty, caches its
// fingerprint as a quarantined entry (so it is never re-evaluated) and
// bumps the fault counter that SearchResult::FaultReport surfaces.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "fusion/legality.hpp"
#include "gpu/timing_simulator.hpp"
#include "model/projection.hpp"
#include "search/group_cache.hpp"

namespace kf {

struct Telemetry;  // telemetry/telemetry.hpp

class Objective {
 public:
  struct Options {
    double unprofitable_penalty = 1.05;  ///< cost factor for rejected groups
    bool enable_cache = true;
    /// Fault isolation: when a model/simulator evaluation throws, charge the
    /// group the unprofitable penalty on its original sum and quarantine its
    /// fingerprint instead of letting the exception abort the search. Turn
    /// off to propagate evaluation failures to the caller.
    bool quarantine_faults = true;
    /// Lock stripes of the group-cost cache (rounded up to a power of two).
    int cache_shards = GroupCostCache::kDefaultShards;
  };

  /// All referees must outlive the objective.
  Objective(const LegalityChecker& checker, const ProjectionModel& model,
            const TimingSimulator& simulator);
  Objective(const LegalityChecker& checker, const ProjectionModel& model,
            const TimingSimulator& simulator, Options options);

  using GroupCost = kf::GroupCost;

  /// Order-insensitive member-set fingerprint: per-member avalanche mix
  /// combined commutatively, no allocation, no sort.
  static std::uint64_t group_fingerprint(std::span<const KernelId> group) noexcept;

  GroupCost group_cost(std::span<const KernelId> group) const;

  double plan_cost(const FusionPlan& plan) const;

  /// Batched, deduplicated scoring of a whole population: deduplicates
  /// every group query call-locally (one shared-cache touch per distinct
  /// fingerprint, one counter update per batch), evaluates only the
  /// distinct unseen groups (in parallel when OpenMP is enabled), then
  /// scores every plan with pure reads. Returns one cost per plan,
  /// bit-identical to calling plan_cost on each.
  std::vector<double> plan_costs(std::span<const FusionPlan> plans) const;

  /// Observer-side lookup for decision provenance: the cached entry on a
  /// hit; on a miss the cost is computed but not published, and a runtime
  /// failure is priced at the quarantine penalty. Touches no counter and no
  /// cache entry, so recording a decision cannot change what it observes.
  GroupCost inspect_group_cost(std::span<const KernelId> group) const;

  /// Telemetry-only attribution for decision provenance: name of the
  /// dominant TimeBreakdown component of the group's simulated launch
  /// ("" when the simulator cannot run it). Pure — no counters, no cache,
  /// no search-state effect; injected faults are swallowed like
  /// maybe_sample_projection's.
  const char* dominant_component(std::span<const KernelId> group) const noexcept;

  /// Measured runtime of original kernel k (memoised).
  double original_time(KernelId k) const;

  /// Baseline: cost of the identity (no-fusion) plan.
  double baseline_cost() const;

  // ---- statistics ----
  long evaluations() const noexcept { return evaluations_.load(); }  ///< objective calls
  long model_evaluations() const noexcept { return misses_.load(); } ///< cache misses
  long faults() const noexcept { return faults_.load(); }  ///< quarantined throws

  /// Evaluation-engine counters for telemetry and the throughput bench.
  struct CacheStats {
    long evaluations = 0;       ///< logical group-cost queries
    long hits = 0;              ///< answered without a model evaluation
    long misses = 0;            ///< model evaluations
    long incremental_hits = 0;  ///< subset of hits plan_costs answered from
                                ///< its own in-batch dedup table
    long duplicate_misses = 0;  ///< concurrent double-computes (insert lost)
    long shard_contention = 0;  ///< cache lock acquisitions that had to wait
    long quarantined = 0;       ///< distinct quarantined member sets
    /// Always 0: kept only because the end-to-end benchmark's digest prints them.
    long delta_hits = 0;
    long delta_full_recosts = 0;
    std::size_t entries = 0;    ///< distinct cached member sets
    int shards = 0;

    double hit_rate() const noexcept {
      const long total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                       : 0.0;
    }
  };
  CacheStats cache_stats() const;

  /// Member-set fingerprints of groups whose evaluation threw (sorted).
  std::vector<std::uint64_t> quarantined_fingerprints() const;
  void reset_counters() noexcept;

  /// Observability (optional, null disables): evaluation counters, per-kind
  /// latency histograms, "fault_quarantine" events, and a deterministic
  /// 1-in-64 projection-vs-simulator disagreement sample on cache misses.
  /// The sampled simulator runs are telemetry-only — faults they hit are
  /// swallowed, never quarantined, and FaultInjector decisions are pure
  /// functions of (seed, site, key), so sampling cannot perturb the search.
  void set_telemetry(const Telemetry* telemetry) noexcept { telemetry_ = telemetry; }

  const LegalityChecker& checker() const noexcept { return checker_; }
  const ProjectionModel& model() const noexcept { return model_; }
  const TimingSimulator& simulator() const noexcept { return simulator_; }

 private:
  const LegalityChecker& checker_;
  const ProjectionModel& model_;
  const TimingSimulator& simulator_;
  Options options_;
  const Telemetry* telemetry_ = nullptr;

  std::vector<double> original_times_;
  mutable std::atomic<long> evaluations_{0};
  mutable std::atomic<long> hits_{0};
  mutable std::atomic<long> misses_{0};
  mutable std::atomic<long> incremental_hits_{0};
  mutable std::atomic<long> duplicate_misses_{0};
  mutable std::atomic<long> faults_{0};
  mutable std::atomic<long> fused_misses_{0};  ///< disagreement-sample stride counter
  mutable GroupCostCache cache_;

  /// Cache-only lookup: counts one logical evaluation; on a hit fills `out`
  /// (quarantined groups hit too — their entry carries the penalty cost)
  /// and counts a cache hit. Never evaluates the model.
  bool peek_group_cost(std::uint64_t fingerprint, GroupCost* out) const;
  /// Evaluates a group whose fingerprint just missed and publishes it to
  /// the cache: counts a model evaluation (miss), quarantines on a throw.
  /// Losing an insert race is counted in CacheStats::duplicate_misses.
  GroupCost force_group_cost(std::uint64_t fingerprint,
                             std::span<const KernelId> group) const;
  GroupCost compute_group_cost(std::span<const KernelId> group) const;
  GroupCost quarantine_cost(std::span<const KernelId> group) const;
  void note_fault(std::span<const KernelId> group, std::uint64_t fingerprint,
                  const char* what) const;
  void maybe_sample_projection(std::span<const KernelId> group,
                               const GroupCost& cost) const;
};

}  // namespace kf
