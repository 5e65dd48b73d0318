// GroupCostCache — sharded, read-mostly concurrent memo of group costs.
//
// The evaluation hot path of every search method funnels through
// Objective::group_cost; at the paper's scale (§V, Table VI: millions of
// evaluations, most of them repeats) the memo is hammered from the OpenMP
// population loop. A single mutex around one map serializes that loop, so
// the cache is lock-striped: the low bits of the 64-bit member-set
// fingerprint select one of 16 shards, each an independent shared_mutex
// beside a flat open-addressed table (util/flat_table.hpp) whose slots hold
// {fingerprint, cost, profitable, quarantined} inline, and whose home slot
// comes from the fingerprint's high bits. Hits — the overwhelming majority
// — take exactly one shared (reader) lock on one shard and one probe run
// over contiguous slots; only inserts, and the growth of a shard's table,
// take that shard's lock exclusively.
//
// Quarantine state (see objective.hpp) is folded into the entry instead of
// living in a second set, so the hit path never needs a second acquisition
// to discover that a group is blacklisted: a quarantined entry simply
// carries its penalty cost like any other.
//
// Entries are immutable once written: a group's cost is a pure function of
// its member set (fault-injection decisions included), so when two threads
// race to compute the same fingerprint both arrive at the same value and
// the first insert wins. The loser is reported back to the caller, which
// audits it as a duplicate model evaluation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>

#include "util/flat_table.hpp"

namespace kf {

/// Cost of one fusion group under Eq. (1) with constraint (1.1) folded in.
/// Defined here (not in objective.hpp) so the cache can store it without a
/// circular include; Objective re-exports it as Objective::GroupCost.
struct GroupCost {
  double cost_s = 0.0;
  bool profitable = true;  ///< constraint (1.1) satisfied (trivially for singletons)
};

class GroupCostCache {
 public:
  /// A power of two, so shard selection is a mask of the already
  /// well-mixed fingerprint.
  static constexpr int kShards = 16;

  struct Entry {
    GroupCost cost;
    bool quarantined = false;  ///< evaluation threw; cost is the penalty cost
  };

  /// Hit path: one shared lock on one shard.
  bool find(std::uint64_t key, Entry* out) const;

  /// Returns true when inserted; false when an entry already existed (the
  /// existing entry wins — see the immutability note above).
  bool insert(std::uint64_t key, const Entry& entry);

  /// Entries and quarantined entries, counted at insert: O(1), no lock.
  std::size_t size() const noexcept {
    return entries_.load(std::memory_order_relaxed);
  }
  long quarantined_count() const noexcept {
    return quarantined_.load(std::memory_order_relaxed);
  }

  /// Lock acquisitions that found the shard already held and had to wait —
  /// the contention signal the shard count is meant to keep near zero.
  long contention() const noexcept {
    return contention_.load(std::memory_order_relaxed);
  }

 private:
  // Padded to a cache line so neighbouring shard locks never false-share.
  struct alignas(64) Shard {
    mutable std::shared_mutex mutex;
    FlatTable<Entry> table;  // keyed by the fingerprint alone
  };

  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<long> contention_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<long> quarantined_{0};

  Shard& shard_of(std::uint64_t key) const noexcept {
    return shards_[static_cast<std::size_t>(key & (kShards - 1))];
  }
};

}  // namespace kf
