// Deterministic pseudo-random number generation.
//
// Everything stochastic in the library (workload generation, the HGGA,
// simulated measurement jitter) draws from kf::Rng so that a single 64-bit
// seed reproduces an entire experiment. The generator is xoshiro256**,
// seeded through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace kf {

/// SplitMix64 step; used for seeding and for cheap stateless hashing.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a value (one SplitMix64 round). Inline because
/// the cost-cache and legality-memo keys run it on every member or mask word.
inline std::uint64_t mix64(std::uint64_t value) noexcept {
  std::uint64_t s = value;
  return splitmix64(s);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Bernoulli trial with probability p (clamped to [0, 1]).
  bool next_bool(double p) noexcept;

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Pick a uniformly random element (by const reference). Requires non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    KF_REQUIRE(!items.empty(), "Rng::pick on empty vector");
    return items[next_below(items.size())];
  }

  /// Derive an independent child generator (for per-task streams).
  Rng split() noexcept;

  /// Raw xoshiro256** state, for checkpoint/resume round-trips.
  std::array<std::uint64_t, 4> state() const noexcept;

  /// Restores a state captured by state(). Rejects the all-zero state
  /// (invalid for xoshiro256**).
  void set_state(const std::array<std::uint64_t, 4>& state);

 private:
  std::uint64_t s_[4];
};

}  // namespace kf
