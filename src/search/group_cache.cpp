#include "search/group_cache.hpp"

#include <mutex>

namespace kf {

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
