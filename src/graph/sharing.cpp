#include "graph/sharing.hpp"

#include <algorithm>
#include <bit>
#include <queue>
#include <set>

#include "util/error.hpp"

namespace kf {

SharingGraph SharingGraph::build(const Program& program) {
  SharingGraph g;
  const auto nk = static_cast<std::size_t>(program.num_kernels());
  const auto na = static_cast<std::size_t>(program.num_arrays());
  g.adj_.assign(nk, {});
  g.array_kernels_.assign(na, {});

  for (KernelId k = 0; k < program.num_kernels(); ++k) {
    for (const ArrayAccess& acc : program.kernel(k).accesses) {
      g.array_kernels_[static_cast<std::size_t>(acc.array)].push_back(k);
    }
  }
  std::vector<std::set<KernelId>> adj_sets(nk);
  for (const auto& ks : g.array_kernels_) {
    for (std::size_t i = 0; i < ks.size(); ++i) {
      for (std::size_t j = i + 1; j < ks.size(); ++j) {
        adj_sets[static_cast<std::size_t>(ks[i])].insert(ks[j]);
        adj_sets[static_cast<std::size_t>(ks[j])].insert(ks[i]);
      }
    }
  }
  g.adj_bits_ = BitMatrix(program.num_kernels());
  for (std::size_t k = 0; k < nk; ++k) {
    g.adj_[k].assign(adj_sets[k].begin(), adj_sets[k].end());
    for (KernelId n : g.adj_[k]) g.adj_bits_.set(static_cast<int>(k), n);
  }
  return g;
}

const std::vector<KernelId>& SharingGraph::sharing_set(ArrayId array) const {
  KF_REQUIRE(array >= 0 && array < static_cast<ArrayId>(array_kernels_.size()),
             "array id out of range");
  return array_kernels_[static_cast<std::size_t>(array)];
}

std::vector<ArrayId> SharingGraph::shared_arrays() const {
  std::vector<ArrayId> out;
  for (std::size_t a = 0; a < array_kernels_.size(); ++a) {
    if (array_kernels_[a].size() >= 2) out.push_back(static_cast<ArrayId>(a));
  }
  return out;
}

std::vector<ArrayId> SharingGraph::shared_within(std::span<const KernelId> group) const {
  std::vector<char> in_group(adj_.size(), 0);
  for (KernelId k : group) in_group[static_cast<std::size_t>(k)] = 1;
  std::vector<ArrayId> out;
  for (std::size_t a = 0; a < array_kernels_.size(); ++a) {
    int touches = 0;
    for (KernelId k : array_kernels_[a]) {
      if (in_group[static_cast<std::size_t>(k)] && ++touches >= 2) break;
    }
    if (touches >= 2) out.push_back(static_cast<ArrayId>(a));
  }
  return out;
}

bool SharingGraph::direct_share(KernelId a, KernelId b) const {
  KF_REQUIRE(a >= 0 && a < num_kernels() && b >= 0 && b < num_kernels(),
             "kernel id out of range");
  const auto& n = adj_[static_cast<std::size_t>(a)];
  return std::find(n.begin(), n.end(), b) != n.end();
}

int SharingGraph::kinship(KernelId a, KernelId b) const {
  KF_REQUIRE(a >= 0 && a < num_kernels() && b >= 0 && b < num_kernels(),
             "kernel id out of range");
  if (a == b) return 0;
  // BFS shortest chain in the sharing graph.
  std::vector<int> dist(adj_.size(), -1);
  std::queue<KernelId> frontier;
  dist[static_cast<std::size_t>(a)] = 0;
  frontier.push(a);
  while (!frontier.empty()) {
    const KernelId u = frontier.front();
    frontier.pop();
    for (KernelId v : adj_[static_cast<std::size_t>(u)]) {
      if (dist[static_cast<std::size_t>(v)] == -1) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        if (v == b) return dist[static_cast<std::size_t>(v)];
        frontier.push(v);
      }
    }
  }
  return 0;  // disconnected
}

bool SharingGraph::group_connected(std::span<const KernelId> group) const {
  if (group.size() <= 1) return true;
  const auto words = static_cast<std::size_t>(adj_bits_.words_per_row());
  thread_local std::vector<std::uint64_t> scratch;
  scratch.assign(4 * words, 0);
  const std::span<std::uint64_t> in(scratch.data(), words);
  const std::span<std::uint64_t> seen(scratch.data() + words, words);
  std::span<std::uint64_t> frontier(scratch.data() + 2 * words, words);
  std::span<std::uint64_t> next(scratch.data() + 3 * words, words);
  set_member_bits(in, group, num_kernels());
  const auto first = static_cast<std::size_t>(group[0]);
  seen[first / 64] = frontier[first / 64] = std::uint64_t{1} << (first % 64);
  std::size_t reached = 1;
  while (reached < group.size()) {
    std::fill(next.begin(), next.end(), 0);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = frontier[w]; bits != 0; bits &= bits - 1) {
        const auto row = adj_bits_.row(static_cast<int>(w * 64) + std::countr_zero(bits));
        for (std::size_t x = 0; x < words; ++x) next[x] |= row[x];
      }
    }
    std::size_t added = 0;
    for (std::size_t x = 0; x < words; ++x) {
      next[x] &= in[x] & ~seen[x];
      seen[x] |= next[x];
      added += static_cast<std::size_t>(std::popcount(next[x]));
    }
    if (added == 0) break;
    reached += added;
    std::swap(frontier, next);
  }
  return reached == group.size();
}

const std::vector<KernelId>& SharingGraph::neighbours(KernelId k) const {
  KF_REQUIRE(k >= 0 && k < num_kernels(), "kernel id out of range");
  return adj_[static_cast<std::size_t>(k)];
}

}  // namespace kf
