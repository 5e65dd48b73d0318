// Population utilities shared by the evolutionary and baseline searches:
// random legal plan generation, legality-preserving repair, and the SoA
// population arena the HGGA breeds into.
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
                             double aggressiveness = 0.8);

/// Ensures every group of `plan` is legal by splitting violating groups
/// into singletons (singletons are always legal). Returns the number of
/// groups split.
int repair_plan(const LegalityChecker& checker, FusionPlan& plan);

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
