#include "util/rng.hpp"

#include <cmath>

namespace kf {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : s_) word = splitmix64(s);
  // xoshiro256** must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  KF_REQUIRE(bound > 0, "next_below requires a positive bound");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  KF_REQUIRE(lo <= hi, "next_int requires lo <= hi, got [" << lo << ", " << hi << "]");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  // 53 random mantissa bits.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) {
  KF_REQUIRE(lo <= hi, "next_double requires lo <= hi");
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng Rng::split() noexcept {
  return Rng((*this)() ^ 0xa5a5a5a5deadbeefULL);
}

std::array<std::uint64_t, 4> Rng::state() const noexcept {
  return {s_[0], s_[1], s_[2], s_[3]};
}

void Rng::set_state(const std::array<std::uint64_t, 4>& state) {
  KF_REQUIRE((state[0] | state[1] | state[2] | state[3]) != 0,
             "all-zero state is invalid for xoshiro256**");
  for (std::size_t i = 0; i < 4; ++i) s_[i] = state[i];
}

}  // namespace kf
