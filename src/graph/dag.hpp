// Small dense DAG utilities.
//
// Programs here have at most a few hundred kernels, so dense bitset
// reachability (n x n bits) is both the simplest and the fastest
// representation for the convexity queries the fusion legality checker
// performs millions of times during a search.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace kf {

/// Dense n x n bit matrix with 64-bit word rows.
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(int n);

  int size() const noexcept { return n_; }

  bool get(int row, int col) const noexcept;
  void set(int row, int col) noexcept;

  /// rows_[dst] |= rows_[src]
  void or_row(int dst, int src) noexcept;

  /// Word view of one row (words_per_row() entries).
  std::span<const std::uint64_t> row(int r) const noexcept;
  std::span<std::uint64_t> row(int r) noexcept;

  int words_per_row() const noexcept { return wpr_; }

  /// Number of set bits in a row.
  int row_popcount(int r) const noexcept;

  /// result.get(c, r) == get(r, c).
  BitMatrix transposed() const;

 private:
  int n_ = 0;
  int wpr_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Sets the bit of every id in `ids` in the word mask `mask` (bit i lives in
/// word i / 64). Each id is checked to lie in [0, n) before its bit is set;
/// an id outside throws kf::PreconditionError.
void set_member_bits(std::span<std::uint64_t> mask, std::span<const int> ids, int n);

/// Directed graph over vertices [0, n); must be acyclic for the queries
/// below (verified by topological_order / is_dag).
class Dag {
 public:
  Dag() = default;
  explicit Dag(int n);

  int size() const noexcept { return n_; }

  /// Adds u -> v; duplicate edges are ignored. Requires u != v in range.
  void add_edge(int u, int v);

  bool has_edge(int u, int v) const noexcept;
  const std::vector<int>& successors(int u) const;

  std::size_t num_edges() const noexcept { return edge_count_; }

  bool is_dag() const;

  /// Kahn topological order. Throws kf::RuntimeError if a cycle exists.
  std::vector<int> topological_order() const;

  /// Full transitive closure: result.get(u, v) == true iff a nonempty
  /// path u -> v exists. Throws on cycles.
  BitMatrix reachability() const;

  /// Transpose of reachability() (v reaches u), for backward queries.
  BitMatrix reverse_reachability() const;

  /// Minimal equivalent graph (for rendering Fig.-2-style diagrams).
  Dag transitive_reduction() const;

 private:
  int n_ = 0;
  std::size_t edge_count_ = 0;
  std::vector<std::vector<int>> succ_;

  void check_vertex(int v) const;
};

}  // namespace kf
