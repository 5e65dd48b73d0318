// FlatTable — the open-addressed hash table behind the search's memos
// (LegalityChecker's resource-verdict memo, each GroupCostCache shard, and
// Objective::plan_costs' per-batch deduplication).
//
// Power-of-two capacity and linear probing. Every slot's hash and key words
// sit inline in one flat array, its value in a parallel one, so a probe
// reads contiguous memory, and neither a hit nor an insert below the
// growth threshold allocates. The table doubles once an insert would take
// it past half full, starting from kInitialCapacity slots unless its owner
// asks for more, so a table that is barely used (a served context's memo)
// stays small.
//
// The table is a building block, not a concurrent container: the caller
// supplies each key's 64-bit hash, whose high bits pick the home slot (so
// they must be well mixed; a sharded caller may spend the low bits on
// picking the shard), and the caller holds whatever lock guards the table —
// shared for find, exclusive for insert, which is where the table grows.
//
// A key is its hash plus key_words further words, fixed per table (0 for a
// table keyed by a fingerprint alone). Keys compare in full: two keys with
// equal hashes and different words are different keys, so a hash
// collision costs a longer probe, never a wrong value.
//
// find and insert keep only the probe inline; the key-width failure and
// insert's growth path are separate functions, so the compiler inlines the
// probe into its callers' loops.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace kf {

template <class Value>
class FlatTable {
 public:
  static constexpr std::size_t kInitialCapacity = 16;

  /// `capacity`, the starting slot count, must be a power of two.
  explicit FlatTable(std::size_t key_words = 0,
                     std::size_t capacity = kInitialCapacity)
      : stride_(key_words + 1),
        mask_(capacity - 1),
        shift_(64 - std::countr_zero(capacity)),
        words_(capacity * stride_),
        values_(capacity),
        used_(capacity, 0) {
    KF_REQUIRE(std::has_single_bit(capacity), "capacity must be a power of two");
  }

  /// The value stored under (hash, key), or nullptr. The pointer is valid
  /// until the next insert.
  const Value* find(std::uint64_t hash, std::span<const std::uint64_t> key = {}) const {
    if (key.size() + 1 != stride_) wrong_width();
    for (std::size_t i = home(hash); used_[i] != 0; i = (i + 1) & mask_) {
      if (matches(i, hash, key)) return &values_[i];
    }
    return nullptr;
  }

  /// Stores `value` under (hash, key) unless the key is present. Returns
  /// the stored value — the first insert's, when the key was present — and
  /// whether this call inserted it.
  std::pair<const Value*, bool> insert(std::uint64_t hash,
                                       std::span<const std::uint64_t> key,
                                       const Value& value) {
    if (key.size() + 1 != stride_) wrong_width();
    std::size_t i = home(hash);
    for (; used_[i] != 0; i = (i + 1) & mask_) {
      if (matches(i, hash, key)) return {&values_[i], false};
    }
    return {add(i, hash, key.data(), value), true};
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return used_.size(); }

 private:
  std::size_t stride_;  // words per slot: the hash, then the key words
  std::size_t mask_ = 0;
  int shift_ = 0;  // home slot = hash >> shift_
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<Value> values_;
  std::vector<std::uint8_t> used_;

  [[noreturn]] static void wrong_width() {
    throw PreconditionError("FlatTable: key has the wrong number of words");
  }

  std::size_t home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> shift_);
  }

  std::size_t free_slot(std::uint64_t hash) const noexcept {
    std::size_t i = home(hash);
    while (used_[i] != 0) i = (i + 1) & mask_;
    return i;
  }

  bool matches(std::size_t i, std::uint64_t hash,
               std::span<const std::uint64_t> key) const noexcept {
    const std::uint64_t* slot = &words_[i * stride_];
    return slot[0] == hash && std::equal(key.begin(), key.end(), slot + 1);
  }

  /// Stores a new key found absent at free slot i, growing the table first
  /// when the insert would take it past half full.
  const Value* add(std::size_t i, std::uint64_t hash, const std::uint64_t* key,
                   const Value& value) {
    if ((size_ + 1) * 2 > capacity()) {
      grow();
      i = free_slot(hash);
    }
    place(i, hash, key, value);
    return &values_[i];
  }

  void place(std::size_t i, std::uint64_t hash, const std::uint64_t* key,
             const Value& value) {
    std::uint64_t* slot = &words_[i * stride_];
    slot[0] = hash;
    std::copy(key, key + (stride_ - 1), slot + 1);
    values_[i] = value;
    used_[i] = 1;
    ++size_;
  }

  void grow() {
    FlatTable bigger(stride_ - 1, 2 * capacity());
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (used_[i] == 0) continue;
      const std::uint64_t* slot = &words_[i * stride_];
      bigger.place(bigger.free_slot(slot[0]), slot[0], slot + 1, values_[i]);
    }
    *this = std::move(bigger);
  }
};

}  // namespace kf
