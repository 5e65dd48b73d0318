#include "fusion/legality.hpp"

#include <algorithm>
#include <functional>
#include <mutex>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace kf {

const char* to_string(LegalityVerdict verdict) noexcept {
  switch (verdict) {
    case LegalityVerdict::Ok:
      return "ok";
    case LegalityVerdict::PhaseMismatch:
      return "phase-mismatch";
    case LegalityVerdict::NotConnected:
      return "not-connected";
    case LegalityVerdict::NotConvex:
      return "not-convex";
    case LegalityVerdict::SmemOverflow:
      return "smem-overflow";
    case LegalityVerdict::RegOverflow:
      return "register-overflow";
    case LegalityVerdict::Unschedulable:
      return "unschedulable-plan";
  }
  return "?";
}

LegalityChecker::LegalityChecker(const Program& program, DeviceSpec device,
                                 FusionCostParams params)
    : program_(program),
      device_(std::move(device)),
      exec_(ExecutionOrderGraph::build(program)),
      sharing_(SharingGraph::build(program)),
      builder_(program,
               [&] {
                 if (params.rocache_bytes < 0) {
                   params.rocache_bytes = device_.readonly_cache_per_smx;
                 }
                 return params;
               }()),
      memo_(static_cast<std::size_t>((program.num_kernels() + 63) / 64)) {}

LegalityVerdict LegalityChecker::check_group(std::span<const KernelId> group,
                                             LaunchDescriptor* built) const {
  KF_REQUIRE(!group.empty(), "empty group");
  if (group.size() == 1) return LegalityVerdict::Ok;

  // §II-C: host-transfer / communication boundaries are fusion barriers.
  const int phase = program_.kernel(group[0]).phase;
  for (KernelId k : group) {
    if (program_.kernel(k).phase != phase) return LegalityVerdict::PhaseMismatch;
  }

  // (1.5) kinship: cheap adjacency BFS.
  if (!sharing_.group_connected(group)) return LegalityVerdict::NotConnected;

  // (1.3) convexity under the precedence DAG.
  if (!exec_.group_is_convex(group)) return LegalityVerdict::NotConvex;

  return resource_verdict(group, built);
}

LegalityVerdict LegalityChecker::check_extension(std::span<const KernelId> grown,
                                                 KernelId added,
                                                 LaunchDescriptor* built) const {
  KF_REQUIRE(grown.size() >= 2 &&
                 std::adjacent_find(grown.begin(), grown.end(), std::greater_equal<>()) ==
                     grown.end() &&
                 std::binary_search(grown.begin(), grown.end(), added),
             "an extended group is strictly ascending and holds the added kernel");
  // The legal group lies in one phase, so one other member stands for it.
  const KernelId other = grown[0] != added ? grown[0] : grown[1];
  if (program_.kernel(added).phase != program_.kernel(other).phase) {
    return LegalityVerdict::PhaseMismatch;
  }
  // (1.5) holds: the legal group is connected, and `added` shares an array
  // with one of its members.
  if (!exec_.group_is_convex(grown)) return LegalityVerdict::NotConvex;
  return resource_verdict(grown, built);
}

LegalityVerdict LegalityChecker::resource_verdict(std::span<const KernelId> group,
                                                  LaunchDescriptor* built) const {
  // The key is the member mask itself: member order does not matter, and
  // the checks above already rejected repeated and out-of-range members.
  thread_local std::vector<std::uint64_t> key;
  key.assign(static_cast<std::size_t>((program_.num_kernels() + 63) / 64), 0);
  set_member_bits(key, group, program_.num_kernels());
  std::uint64_t hash = key.size();
  for (std::uint64_t w : key) hash = mix64(hash ^ w);
  {
    const std::shared_lock lock(memo_mutex_);
    if (const LegalityVerdict* hit = memo_.find(hash, key)) return *hit;
  }
  // (1.6)/(1.7): resource footprint of the would-be generated kernel.
  LaunchDescriptor d = builder_.build(group);
  LegalityVerdict verdict = LegalityVerdict::Ok;
  if (d.regs_per_thread > device_.max_regs_per_thread) {
    verdict = LegalityVerdict::RegOverflow;
  } else if (d.smem_per_block_bytes > device_.smem_per_smx) {
    verdict = LegalityVerdict::SmemOverflow;
  }
  {
    const std::unique_lock lock(memo_mutex_);
    memo_.insert(hash, key, verdict);
  }
  if (built != nullptr) *built = std::move(d);
  return verdict;
}

std::vector<int> LegalityChecker::cyclic_groups(const FusionPlan& plan) const {
  // Kahn's algorithm over the condensation; whatever cannot be peeled off
  // sits on a cycle (or downstream of one). The condensation is built one
  // source group at a time, so a per-target stamp of the current source
  // dedupes its edges; all buffers are reused across calls.
  struct Scratch {
    std::vector<int> edge_begin;  // group g's edges: edges[edge_begin[g], edge_begin[g+1])
    std::vector<int> edges;
    std::vector<int> indegree;
    std::vector<int> stamp;  // last source group that linked to this target
    std::vector<int> ready;
  };
  thread_local Scratch s;
  KF_REQUIRE(plan.num_kernels() == program_.num_kernels(), "plan does not match program");
  const int ng = plan.num_groups();
  const Dag& kernel_dag = exec_.dag();
  const std::span<const int> owner = plan.owners();
  s.edge_begin.clear();
  s.edges.clear();
  s.indegree.assign(static_cast<std::size_t>(ng), 0);
  s.stamp.assign(static_cast<std::size_t>(ng), -1);
  for (int gu = 0; gu < ng; ++gu) {
    s.edge_begin.push_back(static_cast<int>(s.edges.size()));
    for (KernelId u : plan.group(gu)) {
      for (int v : kernel_dag.successors(u)) {
        const int gv = owner[static_cast<std::size_t>(v)];
        if (gv == gu || s.stamp[static_cast<std::size_t>(gv)] == gu) continue;
        s.stamp[static_cast<std::size_t>(gv)] = gu;
        s.edges.push_back(gv);
        ++s.indegree[static_cast<std::size_t>(gv)];
      }
    }
  }
  s.edge_begin.push_back(static_cast<int>(s.edges.size()));
  s.ready.clear();
  for (int g = 0; g < ng; ++g) {
    if (s.indegree[static_cast<std::size_t>(g)] == 0) s.ready.push_back(g);
  }
  int peeled = 0;
  while (!s.ready.empty()) {
    const int g = s.ready.back();
    s.ready.pop_back();
    ++peeled;
    for (int e = s.edge_begin[static_cast<std::size_t>(g)];
         e < s.edge_begin[static_cast<std::size_t>(g) + 1]; ++e) {
      const int v = s.edges[static_cast<std::size_t>(e)];
      if (--s.indegree[static_cast<std::size_t>(v)] == 0) s.ready.push_back(v);
    }
  }
  std::vector<int> stuck;
  if (peeled < ng) {
    for (int g = 0; g < ng; ++g) {
      if (s.indegree[static_cast<std::size_t>(g)] > 0) stuck.push_back(g);
    }
  }
  return stuck;
}

bool LegalityChecker::cycle_from(const FusionPlan& plan, std::span<const int> anchors) const {
  // Three-colour depth-first search of the group quotient, rooted at the
  // anchors: an edge to a group still on the stack closes a cycle. A frame
  // walks its group's quotient edges in place — member position, then the
  // position in that member's successor list — so nothing is materialised.
  struct Frame {
    int group;
    std::int32_t member;  // index into the plan's flat member array
    std::size_t edge;     // position in that member's successor list
  };
  struct Scratch {
    std::vector<std::uint8_t> colour;  // 0 unvisited, 1 on the stack, 2 done
    std::vector<Frame> stack;
  };
  thread_local Scratch s;
  KF_REQUIRE(plan.num_kernels() == program_.num_kernels(), "plan does not match program");
  const int ng = plan.num_groups();
  const Dag& kernel_dag = exec_.dag();
  const std::span<const KernelId> members = plan.flat_members();
  const std::span<const std::int32_t> offsets = plan.flat_offsets();
  const std::span<const int> owner = plan.owners();
  s.colour.assign(static_cast<std::size_t>(ng), 0);
  s.stack.clear();
  auto enter = [&](int g) {
    s.colour[static_cast<std::size_t>(g)] = 1;
    s.stack.push_back({g, offsets[static_cast<std::size_t>(g)], 0});
  };
  for (int root : anchors) {
    KF_REQUIRE(root >= 0 && root < ng, "anchor group " << root << " out of range");
    if (s.colour[static_cast<std::size_t>(root)] != 0) continue;
    enter(root);
    while (!s.stack.empty()) {
      Frame& f = s.stack.back();
      const std::int32_t end = offsets[static_cast<std::size_t>(f.group) + 1];
      int next = -1;
      for (; f.member < end; ++f.member, f.edge = 0) {
        const std::vector<int>& succ =
            kernel_dag.successors(members[static_cast<std::size_t>(f.member)]);
        while (next < 0 && f.edge < succ.size()) {
          const int g = owner[static_cast<std::size_t>(succ[f.edge++])];
          if (g != f.group && s.colour[static_cast<std::size_t>(g)] != 2) next = g;
        }
        if (next >= 0) break;
      }
      if (next < 0) {
        s.colour[static_cast<std::size_t>(f.group)] = 2;
        s.stack.pop_back();
      } else if (s.colour[static_cast<std::size_t>(next)] == 1) {
        return true;
      } else {
        enter(next);
      }
    }
  }
  return false;
}

bool LegalityChecker::edit_closes_cycle(const FusionPlan& plan, int into,
                                        int absorbed, KernelId moved,
                                        bool split_rest) const {
  // Nodes are the plan's groups, except that `absorbed` and `moved` belong
  // to `into` and, with split_rest, each remaining member v of moved's old
  // group is node ng + v. Only a path that leaves the target and comes back
  // through another node is a cycle; edges inside the target are not.
  struct Scratch {
    std::vector<std::uint32_t> seen;  // == epoch: node already on the stack
    std::uint32_t epoch = 0;
    std::vector<int> stack;
  };
  thread_local Scratch s;
  const int ng = plan.num_groups();
  const std::span<const int> owner = plan.owners();
  const int from = moved >= 0 ? plan.group_of(moved) : -1;
  const auto nodes = static_cast<std::size_t>(ng + program_.num_kernels());
  if (s.seen.size() < nodes) s.seen.resize(nodes, 0);
  if (++s.epoch == 0) {
    std::fill(s.seen.begin(), s.seen.end(), 0);
    s.epoch = 1;
  }
  auto node_of = [&](KernelId v) {
    if (v == moved) return into;
    const int g = owner[static_cast<std::size_t>(v)];
    if (g == absorbed) return into;
    if (split_rest && g == from) return ng + v;
    return g;
  };
  const Dag& kernel_dag = exec_.dag();
  // Pushes the out-neighbours of node x reached through member u; true
  // once one of them is the target.
  auto expand = [&](int x, KernelId u) {
    for (int v : kernel_dag.successors(u)) {
      const int y = node_of(static_cast<KernelId>(v));
      if (y == x) continue;
      if (y == into) return true;
      if (s.seen[static_cast<std::size_t>(y)] != s.epoch) {
        s.seen[static_cast<std::size_t>(y)] = s.epoch;
        s.stack.push_back(y);
      }
    }
    return false;
  };
  s.stack.assign(1, into);
  s.seen[static_cast<std::size_t>(into)] = s.epoch;
  while (!s.stack.empty()) {
    const int x = s.stack.back();
    s.stack.pop_back();
    if (x >= ng) {
      if (expand(x, static_cast<KernelId>(x - ng))) return true;
      continue;
    }
    for (KernelId u : plan.group(x)) {
      if (u != moved && expand(x, u)) return true;
    }
    if (x != into) continue;
    if (absorbed >= 0) {
      for (KernelId u : plan.group(absorbed)) {
        if (expand(x, u)) return true;
      }
    } else if (moved >= 0 && expand(x, moved)) {
      return true;
    }
  }
  return false;
}

bool LegalityChecker::merge_is_schedulable(const FusionPlan& plan, int a,
                                           int b) const {
  KF_REQUIRE(a != b, "cannot merge a group with itself");
  return !edit_closes_cycle(plan, a, b, -1, false);
}

bool LegalityChecker::move_is_schedulable(const FusionPlan& plan, KernelId k,
                                          int to, bool split_rest) const {
  KF_REQUIRE(plan.group_of(k) != to, "kernel is already in the target group");
  return !edit_closes_cycle(plan, to, -1, k, split_rest);
}

bool LegalityChecker::plan_is_schedulable(const FusionPlan& plan) const {
  return cyclic_groups(plan).empty();
}

bool LegalityChecker::plan_is_legal(const FusionPlan& plan) const {
  return check_plan(plan) == LegalityVerdict::Ok;
}

LegalityVerdict LegalityChecker::check_plan(const FusionPlan& plan,
                                            int* violating_group) const {
  KF_REQUIRE(plan.num_kernels() == program_.num_kernels(),
             "plan does not match program");
  for (int g = 0; g < plan.num_groups(); ++g) {
    const LegalityVerdict v = check_group(plan.group(g));
    if (v != LegalityVerdict::Ok) {
      if (violating_group != nullptr) *violating_group = g;
      return v;
    }
  }
  if (violating_group != nullptr) *violating_group = -1;
  if (!plan_is_schedulable(plan)) return LegalityVerdict::Unschedulable;
  return LegalityVerdict::Ok;
}

}  // namespace kf
