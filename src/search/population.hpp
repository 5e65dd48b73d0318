// Population utilities shared by the evolutionary and baseline searches:
// random legal plan generation, legality-preserving repair, the edit set
// they all draw from, and the SoA population arena the HGGA breeds into.
//
// The arena exists because offspring churn used to dominate the breed span:
// every generation allocated a fresh vector<Individual>, and every child a
// fresh plan (one heap vector per group before the FusionPlan SoA refactor).
// Population double-buffers two individual pools and recycles them
// generation over generation — building a child is then pure
// copy-assignment into vectors that already own their capacity, and
// FlatGroupList gives crossover a group scratch with the same property.
#pragma once

#include <algorithm>

#include "fusion/fusion_plan.hpp"
#include "fusion/legality.hpp"
#include "util/rng.hpp"

namespace kf {

/// Generates a random *legal* plan by greedy randomized merging: kernels
/// are visited in random order; each tries to join the group of a random
/// sharing-graph neighbour, accepted when the merge stays legal. The
/// aggressiveness parameter in [0, 1] is the per-kernel merge probability,
/// so the generator covers everything from near-identity plans to
/// near-maximal fusions.
FusionPlan random_legal_plan(const LegalityChecker& checker, Rng& rng,
                             double aggressiveness);

/// Makes `plan` legal: splits every illegal group into singletons
/// (singletons are always legal), then runs break_cycles. Returns the
/// number of groups split; plan_is_legal accepts the plan afterwards.
int repair_plan(const LegalityChecker& checker, FusionPlan& plan);

/// For a plan whose groups are all legal: while the group quotient has a
/// cycle, splits the largest fused group on one, which leaves the plan
/// legal. Returns the number of groups split.
int break_cycles(const LegalityChecker& checker, FusionPlan& plan);

// The legality-preserving edit set every randomized search draws from:
// the HGGA's mutations, annealing's steps and random_legal_plan's merges.
// Each edit is checked before it is applied, so a legal plan stays legal.

/// Draws kernel k uniformly and, when k has sharing neighbours, one of them
/// as `other`. Returns false (after the first draw) when k has none.
bool draw_neighbour_pair(const LegalityChecker& checker, Rng& rng, KernelId& k,
                         KernelId& other);

/// Draws one fused group uniformly into `out`; false (no draw) when the plan
/// has none. `fused` is scratch for the fused group indices.
bool draw_fused_group(const FusionPlan& plan, Rng& rng, std::vector<int>& fused, int& out);

/// Whether merging groups ga and gb keeps `plan` legal: they differ, their
/// union (left in `merged`, ga's members first) is a legal group, and the
/// merged plan stays schedulable.
bool merge_is_legal(const LegalityChecker& checker, const FusionPlan& plan, int ga, int gb,
                    std::vector<KernelId>& merged);

/// Whether kernel k may move into group `to`: k is not in it, and `to` with
/// k (left sorted in `target`) is a legal group. What the move leaves behind
/// may be illegal or unschedulable; apply_move repairs it.
bool move_is_legal(const LegalityChecker& checker, const FusionPlan& plan, KernelId k,
                   int to, std::vector<KernelId>& target);

/// Moves k into group `to`, then repair_plan splits what the move broke.
void apply_move(const LegalityChecker& checker, FusionPlan& plan, KernelId k, int to);

/// One member of an evolutionary population.
struct Individual {
  FusionPlan plan;
  double cost = 0.0;
};

/// Flat SoA scratch list of groups (members + boundary offsets): the group
/// set crossover assembles a child from. clear() keeps capacity, so after
/// the first few generations no call allocates.
class FlatGroupList {
 public:
  void clear() {
    members_.clear();
    begin_.resize(1);
  }
  int size() const noexcept { return static_cast<int>(begin_.size()) - 1; }
  std::span<const KernelId> group(int g) const noexcept {
    const auto b = static_cast<std::size_t>(begin_[static_cast<std::size_t>(g)]);
    const auto e = static_cast<std::size_t>(begin_[static_cast<std::size_t>(g) + 1]);
    return std::span<const KernelId>(members_.data() + b, e - b);
  }
  void append(std::span<const KernelId> members) {
    members_.insert(members_.end(), members.begin(), members.end());
    begin_.push_back(static_cast<std::int32_t>(members_.size()));
  }
  void append_singleton(KernelId k) {
    members_.push_back(k);
    begin_.push_back(static_cast<std::int32_t>(members_.size()));
  }
  /// Inserts k into group g, keeping the group's members sorted.
  void insert_member(int g, KernelId k) {
    const auto span = group(g);
    const auto at = std::lower_bound(span.begin(), span.end(), k) - span.begin();
    members_.insert(members_.begin() + begin_[static_cast<std::size_t>(g)] + at, k);
    for (std::size_t i = static_cast<std::size_t>(g) + 1; i < begin_.size(); ++i) {
      begin_[i] += 1;
    }
  }
  std::span<const KernelId> members() const noexcept { return members_; }
  std::span<const std::int32_t> offsets() const noexcept { return begin_; }

 private:
  std::vector<KernelId> members_;
  std::vector<std::int32_t> begin_{0};
};

/// Double-buffered population arena: the current generation lives in one
/// pool while offspring are built into recycled slots of the other;
/// promote_offspring() swaps the roles. A recycled slot's plan keeps its
/// heap buffers, so writing a child into it allocates nothing once the
/// pools are warm. Callers must assign all of a slot's fields —
/// a fresh slot carries the previous generation's leftovers by design.
class Population {
 public:
  std::vector<Individual>& individuals() noexcept { return current_; }
  const std::vector<Individual>& individuals() const noexcept { return current_; }

  /// Returns the next recycled offspring slot (allocating one only while
  /// the pool is still growing).
  Individual& next_offspring() {
    if (offspring_used_ == spare_.size()) spare_.emplace_back();
    return spare_[offspring_used_++];
  }
  std::size_t offspring_count() const noexcept { return offspring_used_; }

  /// Makes the offspring built since the last promote the current
  /// generation; the displaced generation becomes the next recycling pool.
  void promote_offspring() {
    spare_.resize(offspring_used_);
    current_.swap(spare_);
    offspring_used_ = 0;
  }

 private:
  std::vector<Individual> current_;
  std::vector<Individual> spare_;
  std::size_t offspring_used_ = 0;
};

}  // namespace kf
