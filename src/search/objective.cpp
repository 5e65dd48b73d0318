#include "search/objective.hpp"

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/string_util.hpp"

namespace kf {
namespace {

/// Every `kProjectionSampleStride`-th fused cache miss is cross-checked
/// against the timing simulator (see Objective::maybe_sample_projection).
constexpr long kProjectionSampleStride = 64;

JsonValue members_json(std::span<const KernelId> group) {
  JsonValue arr = JsonValue::array();
  for (KernelId k : group) arr.push_back(JsonValue(static_cast<long>(k)));
  return arr;
}

}  // namespace

std::uint64_t Objective::group_fingerprint(std::span<const KernelId> group) noexcept {
  // Commutative combine of independently avalanche-mixed members: the sum
  // of strong per-element hashes is order-insensitive (no copy, no sort)
  // and keeps the 2^-64 birthday-bound collision behaviour of hashing the
  // sorted stream — each member still contributes 64 fully-mixed bits, the
  // modular sum merely forgets their order, which the member *set* never
  // had. The salt differs from fault_key's so cache keys and fault-draw
  // keys stay independent streams.
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (KernelId k : group) {
    h += mix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k)) +
               0x9e3779b97f4a7c15ULL);
  }
  return mix64(h ^ (static_cast<std::uint64_t>(group.size()) << 32));
}

Objective::Objective(const LegalityChecker& checker, const ProjectionModel& model,
                     const TimingSimulator& simulator)
    : Objective(checker, model, simulator, Options{}) {}

Objective::Objective(const LegalityChecker& checker, const ProjectionModel& model,
                     const TimingSimulator& simulator, Options options)
    : checker_(checker), model_(model), simulator_(simulator), options_(options),
      cache_(options.cache_shards) {
  KF_REQUIRE(options_.unprofitable_penalty >= 1.0,
             "unprofitable penalty must be >= 1");
  const Program& program = checker_.program();
  original_times_.reserve(static_cast<std::size_t>(program.num_kernels()));
  for (KernelId k = 0; k < program.num_kernels(); ++k) {
    original_times_.push_back(simulator_.run_original(program, k).time_s);
  }
}

double Objective::original_time(KernelId k) const {
  KF_REQUIRE(k >= 0 && k < static_cast<KernelId>(original_times_.size()),
             "kernel id out of range");
  return original_times_[static_cast<std::size_t>(k)];
}

Objective::GroupCost Objective::quarantine_cost(std::span<const KernelId> group) const {
  GroupCost out;
  out.profitable = false;
  for (KernelId k : group) out.cost_s += original_time(k);
  out.cost_s *= options_.unprofitable_penalty;
  return out;
}

Objective::GroupCost Objective::compute_group_cost(std::span<const KernelId> group) const {
  GroupCost out;
  if (group.size() == 1) {
    out.cost_s = original_time(group[0]);
    return out;
  }
  FaultInjector::instance().maybe_throw(FaultSite::Objective, fault_key(group),
                                        "objective group evaluation failed");
  double original_sum = 0.0;
  for (KernelId k : group) original_sum += original_time(k);

  const LaunchDescriptor d = checker_.builder().build(group);
  const Projection projection = model_.project(checker_.program(), d);
  if (!projection.feasible || projection.time_s >= original_sum) {
    out.cost_s = original_sum * options_.unprofitable_penalty;
    out.profitable = false;
  } else {
    out.cost_s = projection.time_s;
  }
  return out;
}

bool Objective::peek_group_cost(std::uint64_t fingerprint, GroupCost* out) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  GroupCostCache::Entry entry;
  if (!cache_.find(fingerprint, &entry)) return false;
  hits_.fetch_add(1, std::memory_order_relaxed);
  *out = entry.cost;
  return true;
}

Objective::GroupCost Objective::force_group_cost(std::uint64_t fingerprint,
                                                 std::span<const KernelId> group) const {
  misses_.fetch_add(1, std::memory_order_relaxed);

  // Fault isolation: a runtime failure inside the model/simulator costs the
  // candidate the unprofitable penalty on its original sum and quarantines
  // the member set; logic errors (caller misuse) still propagate.
  bool quarantined = false;
  auto guarded = [&]() -> GroupCost {
    try {
      return compute_group_cost(group);
    } catch (const std::runtime_error& e) {
      if (!options_.quarantine_faults) throw;
      quarantined = true;
      faults_.fetch_add(1, std::memory_order_relaxed);
      note_fault(group, fingerprint, e.what());
      return quarantine_cost(group);
    }
  };
  // Miss-path evaluation, with the per-kind latency histogram when metrics
  // are attached (hit costs stay out: they are a striped hash lookup).
  GroupCost cost;
  if (telemetry_ != nullptr && telemetry_->metrics != nullptr) {
    Stopwatch sw;
    cost = guarded();
    telemetry_->metrics->observe(
        "objective.eval_s", sw.elapsed_s(),
        {{"kind", group.size() == 1 ? "singleton" : "projection"}});
  } else {
    cost = guarded();
  }

  // Quarantined entries are published even with the cache disabled — the
  // quarantine contract ("never re-evaluated") must hold either way. A lost
  // insert race means a concurrent thread computed the same fingerprint;
  // the values are identical (evaluation is pure), so the duplicate is an
  // audit statistic, not an error.
  if (options_.enable_cache || quarantined) {
    if (!cache_.insert(fingerprint, GroupCostCache::Entry{cost, quarantined})) {
      duplicate_misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  maybe_sample_projection(group, cost);
  return cost;
}

Objective::GroupCost Objective::group_cost(std::span<const KernelId> group) const {
  KF_REQUIRE(!group.empty(), "empty group");
  const std::uint64_t key = group_fingerprint(group);
  // Hit path: one shared lock on one cache shard, quarantine state folded
  // into the entry — no second acquisition, no re-hash, no allocation.
  GroupCost cached;
  if (peek_group_cost(key, &cached)) return cached;
  return force_group_cost(key, group);
}

Objective::GroupCost Objective::inspect_group_cost(
    std::span<const KernelId> group) const {
  KF_REQUIRE(!group.empty(), "empty group");
  GroupCostCache::Entry entry;
  if (cache_.find(group_fingerprint(group), &entry)) return entry.cost;
  try {
    return compute_group_cost(group);
  } catch (const std::runtime_error&) {
    return quarantine_cost(group);
  }
}

void Objective::note_fault(std::span<const KernelId> group, std::uint64_t fingerprint,
                           const char* what) const {
  const Telemetry* t = telemetry_;
  if (t == nullptr) return;
  if (t->metrics != nullptr) t->metrics->count("objective.faults");
  if (t->wants_trace()) {
    t->trace->emit("fault_quarantine", [&](TraceEvent& e) {
      e.str("fingerprint", strprintf("%016llx",
                                     static_cast<unsigned long long>(fingerprint)))
          .json("members", members_json(group))
          .str("error", what);
    });
  }
}

const char* Objective::dominant_component(std::span<const KernelId> group) const noexcept {
  try {
    SimResult sim;
    if (group.size() == 1) {
      sim = simulator_.run_original(checker_.program(), group[0]);
    } else {
      const LaunchDescriptor d = checker_.builder().build(group);
      sim = simulator_.run(checker_.program(), d);
    }
    if (!sim.launchable) return "";
    return TimeBreakdown::component_name(sim.breakdown.dominant_component());
  } catch (...) {
    // Telemetry-only simulator run: injected faults and infeasible builds
    // leave the attribution unknown rather than perturbing the search.
    return "";
  }
}

void Objective::maybe_sample_projection(std::span<const KernelId> group,
                                        const GroupCost& cost) const {
  const Telemetry* t = telemetry_;
  if (t == nullptr ||
      (t->metrics == nullptr && !t->wants_trace() && t->calibration == nullptr)) {
    return;
  }
  // Only fused groups whose projection was accepted carry a projected time
  // worth cross-checking (cost_s == Projection::time_s exactly then).
  if (group.size() < 2 || !cost.profitable) return;
  if (fused_misses_.fetch_add(1, std::memory_order_relaxed) %
          kProjectionSampleStride != 0) {
    return;
  }
  try {
    const LaunchDescriptor d = checker_.builder().build(group);
    Stopwatch sw;
    const SimResult sim = simulator_.run(checker_.program(), d);
    const double sim_elapsed = sw.elapsed_s();
    if (!sim.launchable || sim.time_s <= 0.0) return;
    const double rel_error = (cost.cost_s - sim.time_s) / sim.time_s;
    if (t->metrics != nullptr) {
      t->metrics->observe("objective.eval_s", sim_elapsed, {{"kind", "simulator"}});
      t->metrics->observe("objective.projection_rel_error", rel_error);
      t->metrics->count("objective.projection_samples");
    }
    if (t->wants_trace()) {
      t->trace->emit("projection_sample", [&](TraceEvent& e) {
        e.json("members", members_json(group))
            .num("projected_s", cost.cost_s)
            .num("simulated_s", sim.time_s)
            .num("rel_error", rel_error);
      });
    }
    if (t->calibration != nullptr) {
      const auto drift =
          t->calibration->record(group.size(), cost.cost_s, sim.time_s);
      if (drift.has_value()) {
        if (t->metrics != nullptr) {
          t->metrics->count(
              "objective.calibration_drift", 1,
              {{"bucket", CalibrationTracker::bucket_label(drift->bucket)}});
        }
        if (t->wants_trace()) {
          t->trace->emit("calibration_drift", [&](TraceEvent& e) {
            e.str("bucket", CalibrationTracker::bucket_label(drift->bucket))
                .num("samples", static_cast<double>(drift->count))
                .num("mean_rel_error", drift->mean_rel_error)
                .num("band", t->calibration->drift_band());
          });
        }
      }
    }
  } catch (const std::runtime_error&) {
    // Telemetry-only simulator run: an injected fault here is swallowed —
    // it must not quarantine the group or perturb the search (injection
    // decisions are pure functions of (seed, site, key), so skipping the
    // sample changes nothing downstream).
  }
}

double Objective::plan_cost(const FusionPlan& plan) const {
  double total = 0.0;
  for (int g = 0; g < plan.num_groups(); ++g) {
    total += group_cost(plan.group(g)).cost_s;
  }
  return total;
}

std::vector<double> Objective::plan_costs(std::span<const FusionPlan> plans) const {
  long queries = 0;
  for (const FusionPlan& plan : plans) queries += plan.num_groups();
  std::vector<double> out(plans.size(), 0.0);
  if (queries == 0) return out;
  SpanTracer::Scope batch_span = scoped_span(telemetry_, "objective.plan_costs");
  SpanTracer::Scope probe_span = scoped_span(telemetry_, "objective.cache_probe");

  // Pass 1 (serial): deduplicate *every* query, not just the misses, with a
  // call-local open-addressing table (fp -> arena slot). Each distinct
  // fingerprint touches the shared cache exactly once — duplicates resolve
  // with no lock, no atomic, no heap churn, which is where a population's
  // worth of repeated singleton/fused groups spends its time. The table is
  // sized to the *distinct* count (grown 4x past 2/3 load) so it stays
  // L1/L2-resident; sizing it to the query count measurably hurts. The
  // first occurrence in plan order is the representative, so the miss work
  // list is deterministic. Key 0 marks an empty slot; the (2^-64) group
  // whose fingerprint is 0 falls back to group_cost.
  std::size_t cap = 1024;
  std::vector<std::uint64_t> keys(cap, 0);
  std::vector<std::uint32_t> index(cap, 0);
  std::vector<double> arena;  ///< cost per distinct fp; miss = -1 sentinel
  std::vector<std::uint32_t> slots(static_cast<std::size_t>(queries));
  struct Miss {
    std::uint64_t fp;
    std::size_t plan;
    int group;
  };
  std::vector<Miss> misses;
  const auto probe = [&keys, &cap](std::uint64_t fp) {
    std::size_t pos = static_cast<std::size_t>(fp) & (cap - 1);
    while (keys[pos] != 0 && keys[pos] != fp) pos = (pos + 1) & (cap - 1);
    return pos;
  };
  long in_batch = 0;  ///< duplicate queries answered from the table
  std::size_t q = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const FusionPlan& plan = plans[i];
    for (int g = 0; g < plan.num_groups(); ++g) {
      const std::uint64_t fp = group_fingerprint(plan.group(g));
      if (fp == 0) {  // cannot live in the table; resolve per occurrence
        --queries;
        slots[q++] = static_cast<std::uint32_t>(arena.size());
        arena.push_back(group_cost(plan.group(g)).cost_s);
        continue;
      }
      std::size_t pos = probe(fp);
      if (keys[pos] == fp) {
        ++in_batch;
      } else {
        if ((arena.size() + 1) * 3 > cap * 2) {
          std::vector<std::uint64_t> old_keys = std::move(keys);
          std::vector<std::uint32_t> old_index = std::move(index);
          cap <<= 2;
          keys.assign(cap, 0);
          index.assign(cap, 0);
          for (std::size_t p = 0; p < old_keys.size(); ++p) {
            if (old_keys[p] == 0) continue;
            const std::size_t np = probe(old_keys[p]);
            keys[np] = old_keys[p];
            index[np] = old_index[p];
          }
          pos = probe(fp);
        }
        keys[pos] = fp;
        index[pos] = static_cast<std::uint32_t>(arena.size());
        GroupCostCache::Entry entry;
        if (cache_.find(fp, &entry)) {
          arena.push_back(entry.cost.cost_s);
        } else {
          misses.push_back(Miss{fp, i, g});
          arena.push_back(-1.0);  // group costs are strictly positive
        }
      }
      slots[q++] = index[pos];
    }
  }
  // Counter parity with the per-plan path, one update per batch: every
  // query is a logical evaluation; everything not among the distinct
  // misses would have hit the cache (duplicates of a miss hit the entry
  // its first occurrence inserts).
  evaluations_.fetch_add(queries, std::memory_order_relaxed);
  hits_.fetch_add(queries - static_cast<long>(misses.size()),
                  std::memory_order_relaxed);
  incremental_hits_.fetch_add(in_batch, std::memory_order_relaxed);

  probe_span.end();

  // Pass 2 (parallel): evaluate only the distinct unseen groups.
  if (!misses.empty()) {
    SpanTracer::Scope eval_span = scoped_span(telemetry_, "objective.eval_misses");
    std::vector<double> miss_cost(misses.size());
#pragma omp parallel for schedule(dynamic)
    for (std::size_t m = 0; m < misses.size(); ++m) {
      const Miss& miss = misses[m];
      miss_cost[m] =
          force_group_cost(miss.fp, plans[miss.plan].group(miss.group)).cost_s;
    }
    std::size_t m = 0;
    for (double& slot : arena) {
      if (slot < 0.0) slot = miss_cost[m++];
    }
  }

  // Pass 3: pure reads — sum each plan in group order, exactly the order
  // plan_cost uses, so the doubles are bit-identical.
  q = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    double total = 0.0;
    const int groups = plans[i].num_groups();
    for (int g = 0; g < groups; ++g) total += arena[slots[q++]];
    out[i] = total;
  }
  return out;
}

double Objective::baseline_cost() const {
  double total = 0.0;
  for (double t : original_times_) total += t;
  return total;
}

Objective::CacheStats Objective::cache_stats() const {
  CacheStats stats;
  stats.evaluations = evaluations_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.incremental_hits = incremental_hits_.load(std::memory_order_relaxed);
  stats.duplicate_misses = duplicate_misses_.load(std::memory_order_relaxed);
  stats.shard_contention = cache_.contention();
  stats.quarantined = cache_.quarantined_count();
  stats.entries = cache_.size();
  stats.shards = cache_.shards();
  return stats;
}

std::vector<std::uint64_t> Objective::quarantined_fingerprints() const {
  return cache_.quarantined_keys();
}

void Objective::reset_counters() noexcept {
  evaluations_.store(0);
  hits_.store(0);
  misses_.store(0);
  incremental_hits_.store(0);
  duplicate_misses_.store(0);
  faults_.store(0);
}

}  // namespace kf
