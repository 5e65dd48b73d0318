#include "search/group_cache.hpp"

#include <mutex>

#include "util/error.hpp"

namespace kf {
namespace {

int round_up_pow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

GroupCostCache::GroupCostCache(int shards) {
  KF_REQUIRE(shards >= 1, "cache shard count must be >= 1");
  shard_count_ = round_up_pow2(shards);
  mask_ = static_cast<std::uint64_t>(shard_count_ - 1);
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(shard_count_));
}

bool GroupCostCache::find(std::uint64_t key, Entry* out) const {
  const Shard& shard = shard_of(key);
  if (!shard.mutex.try_lock_shared()) {
    contention_.fetch_add(1, std::memory_order_relaxed);
    shard.mutex.lock_shared();
  }
  std::shared_lock<std::shared_mutex> lock(shard.mutex, std::adopt_lock);
  const Entry* hit = shard.table.find(key);
  if (hit == nullptr) return false;
  *out = *hit;
  return true;
}

bool GroupCostCache::insert(std::uint64_t key, const Entry& entry) {
  Shard& shard = shard_of(key);
  if (!shard.mutex.try_lock()) {
    contention_.fetch_add(1, std::memory_order_relaxed);
    shard.mutex.lock();
  }
  {
    std::lock_guard<std::shared_mutex> lock(shard.mutex, std::adopt_lock);
    if (!shard.table.insert(key, {}, entry).second) return false;
  }
  entries_.fetch_add(1, std::memory_order_relaxed);
  if (entry.quarantined) quarantined_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace kf
