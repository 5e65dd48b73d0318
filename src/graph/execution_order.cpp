#include "graph/execution_order.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace kf {

ExecutionOrderGraph ExecutionOrderGraph::build(const Program& program) {
  return build(program, DependencyGraph::build(program));
}

ExecutionOrderGraph ExecutionOrderGraph::build(const Program& program,
                                               const DependencyGraph& deps) {
  KF_REQUIRE(deps.num_kernels() == program.num_kernels(),
             "dependency graph does not match program");
  ExecutionOrderGraph g;
  g.dag_ = Dag(program.num_kernels());
  for (const DependencyEdge& e : deps.edges()) {
    g.dag_.add_edge(e.from, e.to);
  }
  g.reach_ = g.dag_.reachability();
  g.ancestors_ = g.reach_.transposed();
  return g;
}

bool ExecutionOrderGraph::must_precede(KernelId a, KernelId b) const noexcept {
  if (a < 0 || b < 0 || a >= dag_.size() || b >= dag_.size()) return false;
  return reach_.get(a, b);
}

bool ExecutionOrderGraph::has_internal_precedence(std::span<const KernelId> group) const {
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (i != j && must_precede(group[i], group[j])) return true;
    }
  }
  return false;
}

bool ExecutionOrderGraph::group_is_convex(std::span<const KernelId> group) const {
  if (group.size() <= 1) return true;
  // A kernel c outside the group sits on a path a -> c -> b between two
  // members exactly when c is both a descendant and an ancestor of the
  // group, so one pass of row ORs over the members decides (1.3).
  const auto words = static_cast<std::size_t>(reach_.words_per_row());
  thread_local std::vector<std::uint64_t> scratch;
  scratch.assign(3 * words, 0);
  const std::span<std::uint64_t> in(scratch.data(), words);
  const std::span<std::uint64_t> below(scratch.data() + words, words);
  const std::span<std::uint64_t> above(scratch.data() + 2 * words, words);
  set_member_bits(in, group, dag_.size());
  for (KernelId k : group) {
    const auto down = reach_.row(k);
    const auto up = ancestors_.row(k);
    for (std::size_t w = 0; w < words; ++w) {
      below[w] |= down[w];
      above[w] |= up[w];
    }
  }
  for (std::size_t w = 0; w < words; ++w) {
    if ((below[w] & above[w] & ~in[w]) != 0) return false;
  }
  return true;
}

std::vector<KernelId> ExecutionOrderGraph::kernels_between(KernelId a, KernelId b) const {
  std::vector<KernelId> out;
  if (!must_precede(a, b)) return out;
  for (int c = 0; c < dag_.size(); ++c) {
    if (c != a && c != b && reach_.get(a, c) && reach_.get(c, b)) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<KernelId> ExecutionOrderGraph::topological_order() const {
  return dag_.topological_order();
}

std::string ExecutionOrderGraph::to_dot(const Program& program) const {
  const Dag reduced = dag_.transitive_reduction();
  std::ostringstream os;
  os << "digraph execution_order {\n  rankdir=LR;\n";
  for (KernelId k = 0; k < reduced.size(); ++k) {
    os << "  k" << k << " [shape=circle,label=\"" << program.kernel(k).name << "\"];\n";
  }
  for (KernelId k = 0; k < reduced.size(); ++k) {
    for (int v : reduced.successors(k)) {
      os << "  k" << k << " -> k" << v << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace kf
