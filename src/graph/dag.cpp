#include "graph/dag.hpp"

#include <algorithm>
#include <bit>
#include <queue>

#include "util/error.hpp"

namespace kf {

BitMatrix::BitMatrix(int n) : n_(n), wpr_((n + 63) / 64) {
  KF_REQUIRE(n >= 0, "BitMatrix size must be non-negative");
  words_.assign(static_cast<std::size_t>(n_) * wpr_, 0);
}

bool BitMatrix::get(int row, int col) const noexcept {
  const std::size_t idx = static_cast<std::size_t>(row) * wpr_ + col / 64;
  return (words_[idx] >> (col % 64)) & 1u;
}

void BitMatrix::set(int row, int col) noexcept {
  const std::size_t idx = static_cast<std::size_t>(row) * wpr_ + col / 64;
  words_[idx] |= std::uint64_t{1} << (col % 64);
}

void BitMatrix::or_row(int dst, int src) noexcept {
  auto* d = &words_[static_cast<std::size_t>(dst) * wpr_];
  const auto* s = &words_[static_cast<std::size_t>(src) * wpr_];
  for (int w = 0; w < wpr_; ++w) d[w] |= s[w];
}

std::span<const std::uint64_t> BitMatrix::row(int r) const noexcept {
  return {&words_[static_cast<std::size_t>(r) * wpr_], static_cast<std::size_t>(wpr_)};
}

std::span<std::uint64_t> BitMatrix::row(int r) noexcept {
  return {&words_[static_cast<std::size_t>(r) * wpr_], static_cast<std::size_t>(wpr_)};
}

int BitMatrix::row_popcount(int r) const noexcept {
  int count = 0;
  for (std::uint64_t w : row(r)) count += std::popcount(w);
  return count;
}

BitMatrix BitMatrix::transposed() const {
  BitMatrix t(n_);
  for (int r = 0; r < n_; ++r) {
    const auto words = row(r);
    for (int w = 0; w < wpr_; ++w) {
      for (std::uint64_t bits = words[static_cast<std::size_t>(w)]; bits != 0; bits &= bits - 1) {
        t.set(w * 64 + std::countr_zero(bits), r);
      }
    }
  }
  return t;
}

void set_member_bits(std::span<std::uint64_t> mask, std::span<const int> ids, int n) {
  for (int id : ids) {
    KF_REQUIRE(id >= 0 && id < n, "kernel id " << id << " out of range");
    mask[static_cast<std::size_t>(id) / 64] |= std::uint64_t{1} << (id % 64);
  }
}

Dag::Dag(int n) : n_(n), succ_(static_cast<std::size_t>(n)) {
  KF_REQUIRE(n >= 0, "Dag size must be non-negative");
}

void Dag::check_vertex(int v) const {
  KF_REQUIRE(v >= 0 && v < n_, "vertex " << v << " out of range [0," << n_ << ")");
}

void Dag::add_edge(int u, int v) {
  check_vertex(u);
  check_vertex(v);
  KF_REQUIRE(u != v, "self-edge on vertex " << u);
  auto& s = succ_[static_cast<std::size_t>(u)];
  if (std::find(s.begin(), s.end(), v) != s.end()) return;
  s.push_back(v);
  ++edge_count_;
}

bool Dag::has_edge(int u, int v) const noexcept {
  if (u < 0 || u >= n_ || v < 0 || v >= n_) return false;
  const auto& s = succ_[static_cast<std::size_t>(u)];
  return std::find(s.begin(), s.end(), v) != s.end();
}

const std::vector<int>& Dag::successors(int u) const {
  check_vertex(u);
  return succ_[static_cast<std::size_t>(u)];
}

std::vector<int> Dag::topological_order() const {
  std::vector<int> indegree(static_cast<std::size_t>(n_), 0);
  for (int u = 0; u < n_; ++u) {
    for (int v : succ_[static_cast<std::size_t>(u)]) {
      ++indegree[static_cast<std::size_t>(v)];
    }
  }
  // Min-heap for a deterministic order independent of insertion history.
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (int v = 0; v < n_; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n_));
  while (!ready.empty()) {
    const int u = ready.top();
    ready.pop();
    order.push_back(u);
    for (int v : succ_[static_cast<std::size_t>(u)]) {
      if (--indegree[static_cast<std::size_t>(v)] == 0) ready.push(v);
    }
  }
  KF_CHECK(static_cast<int>(order.size()) == n_, "graph contains a cycle");
  return order;
}

bool Dag::is_dag() const {
  try {
    (void)topological_order();
    return true;
  } catch (const RuntimeError&) {
    return false;
  }
}

BitMatrix Dag::reachability() const {
  const std::vector<int> order = topological_order();
  BitMatrix reach(n_);
  // Process in reverse topological order: u reaches succ(u) and everything
  // each successor reaches.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    for (int v : succ_[static_cast<std::size_t>(u)]) {
      reach.set(u, v);
      reach.or_row(u, v);
    }
  }
  return reach;
}

BitMatrix Dag::reverse_reachability() const { return reachability().transposed(); }

Dag Dag::transitive_reduction() const {
  const BitMatrix reach = reachability();
  Dag reduced(n_);
  for (int u = 0; u < n_; ++u) {
    for (int v : succ_[static_cast<std::size_t>(u)]) {
      // u -> v is redundant if some other successor w of u reaches v.
      bool redundant = false;
      for (int w : succ_[static_cast<std::size_t>(u)]) {
        if (w != v && reach.get(w, v)) {
          redundant = true;
          break;
        }
      }
      if (!redundant) reduced.add_edge(u, v);
    }
  }
  return reduced;
}

}  // namespace kf
