#include "fusion/fused_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "gpu/device_spec.hpp"
#include "util/error.hpp"

namespace kf {
namespace {

/// What one build knows about one array. An entry belongs to the current
/// build only while its epoch matches the scratch's, so no build has to
/// clear what an earlier one (of any builder on this thread) left behind.
struct ArrayMark {
  std::uint32_t epoch = 0;
  int accesses = 0;     ///< the members' accesses to the array
  int halo_until = -1;  ///< last member index reading it at an offset once produced
  std::uint8_t flags = 0;
};
constexpr std::uint8_t kPivot = 1;
constexpr std::uint8_t kRocache = 2;
constexpr std::uint8_t kProduced = 4;

struct BuildScratch {
  std::vector<ArrayMark> marks;  ///< by array id
  std::uint32_t epoch = 0;
  std::vector<ArrayId> shared;  ///< arrays with two or more accesses
};

}  // namespace

FusedKernelBuilder::FusedKernelBuilder(const Program& program, FusionCostParams params)
    : program_(program),
      params_(params),
      rocache_budget_(params.rocache_bytes < 0 ? DeviceSpec::k20x().readonly_cache_per_smx
                                               : params.rocache_bytes) {
  KF_REQUIRE(params_.secondary_reg_fraction >= 0.0 && params_.secondary_reg_fraction <= 1.0,
             "secondary_reg_fraction out of range");
  const LaunchConfig& launch = program_.launch();
  arrays_.reserve(static_cast<std::size_t>(program_.num_arrays()));
  for (ArrayId a = 0; a < program_.num_arrays(); ++a) {
    const ArrayInfo& info = program_.array(a);
    ArrayFacts facts;
    facts.elem_bytes = info.elem_bytes;
    facts.rocache_tile_bytes =
        static_cast<long>(launch.threads_per_block() * halo_area_factor(launch, 1)) *
        info.elem_bytes;
    facts.rocache_eligible = info.readonly_cache_eligible;
    arrays_.push_back(facts);
  }
  access_begin_.reserve(static_cast<std::size_t>(program_.num_kernels()) + 1);
  for (KernelId k = 0; k < program_.num_kernels(); ++k) {
    const KernelInfo& kernel = program_.kernel(k);
    access_begin_.push_back(static_cast<int>(accesses_.size()));
    for (const ArrayAccess& acc : kernel.accesses) {
      KF_REQUIRE(acc.array >= 0 && acc.array < program_.num_arrays(),
                 "kernel '" << kernel.name << "' references array id " << acc.array
                            << " out of range");
      accesses_.push_back(Access{acc.array, acc.pattern.horizontal_radius(),
                                 acc.pattern.thread_load(), acc.is_read(), acc.is_write()});
      // Only arrays no kernel writes may live in the read-only cache.
      if (acc.is_write()) arrays_[static_cast<std::size_t>(acc.array)].rocache_eligible = false;
    }
  }
  access_begin_.push_back(static_cast<int>(accesses_.size()));
}

LaunchDescriptor FusedKernelBuilder::build(std::span<const KernelId> group) const {
  KF_REQUIRE(!group.empty(), "cannot build a descriptor for an empty group");
  if (group.size() == 1) return descriptor_for_original(program_, group[0]);

  LaunchDescriptor d;
  d.members.assign(group.begin(), group.end());
  std::sort(d.members.begin(), d.members.end());  // invocation order
  const std::vector<KernelId>& members = d.members;
  // The name also range-checks every member.
  std::size_t name_length = members.size() + 2;
  for (KernelId k : members) name_length += program_.kernel(k).name.size();
  d.name.reserve(name_length);
  d.name = "F[";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) d.name += '+';
    d.name += program_.kernel(members[i]).name;
  }
  d.name += ']';
  fused_builds_.fetch_add(1, std::memory_order_relaxed);

  thread_local BuildScratch s;
  if (s.marks.size() < arrays_.size()) s.marks.resize(arrays_.size());
  if (++s.epoch == 0) {
    for (ArrayMark& m : s.marks) m.epoch = 0;
    s.epoch = 1;
  }
  auto mark = [&](ArrayId a) -> ArrayMark& { return s.marks[static_cast<std::size_t>(a)]; };
  auto staged = [&](ArrayId a) { return (mark(a).flags & (kPivot | kRocache)) != 0; };

  // ---- pivot arrays: arrays the members access at least twice ----
  s.shared.clear();
  for (KernelId k : members) {
    for (const Access& acc : accesses_of(k)) {
      ArrayMark& m = mark(acc.array);
      if (m.epoch != s.epoch) m = ArrayMark{s.epoch, 0, -1, 0};
      if (++m.accesses == 2) s.shared.push_back(acc.array);
    }
  }
  std::sort(s.shared.begin(), s.shared.end());

  // §II-C: offload program-wide read-only shared arrays to the read-only
  // (texture) cache, lowest array id first, while the cache budget lasts —
  // each offload frees a full SMEM tile.
  long used = 0;
  for (ArrayId a : s.shared) {
    const ArrayFacts& facts = arrays_[static_cast<std::size_t>(a)];
    if (params_.rocache_bytes != 0 && facts.rocache_eligible &&
        used + facts.rocache_tile_bytes <= rocache_budget_) {
      d.rocache_arrays.push_back(a);
      mark(a).flags |= kRocache;
      used += facts.rocache_tile_bytes;
    } else {
      d.pivot_arrays.push_back(a);
      mark(a).flags |= kPivot;
    }
  }

  // ---- complex-fusion analysis ----
  // For each pivot, find producer members and consumer members after them.
  // An offset (radius > 0) read of a produced pivot forces a barrier and a
  // recomputed halo; a center-only read is passed through SMEM/registers
  // with a barrier but no halo. Every earlier producer of an array read at
  // an offset recomputes halo sites: halo_until keeps the last such read.
  int sync_boundaries = 0;
  int consumer_halo = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::span<const Access> accesses = accesses_of(members[i]);
    bool needs_sync_before = false;
    for (const Access& acc : accesses) {
      ArrayMark& m = mark(acc.array);
      if (!acc.read || (m.flags & kProduced) == 0) continue;
      needs_sync_before = true;
      if (acc.radius > 0) {
        consumer_halo = std::max(consumer_halo, acc.radius);
        m.halo_until = static_cast<int>(i);
      }
    }
    if (needs_sync_before) ++sync_boundaries;
    for (const Access& acc : accesses) {
      ArrayMark& m = mark(acc.array);
      if (acc.write && (m.flags & kPivot) != 0) m.flags |= kProduced;
    }
  }
  d.recompute_halo = consumer_halo > 0;

  // ---- staging halo radius ----
  // Pivot tiles are staged wide enough for the widest read of any pivot by
  // any member, plus the recompute radius when halo sites must themselves
  // be produced from staged inputs.
  int stage_radius = 0;
  for (KernelId k : members) {
    for (const Access& acc : accesses_of(k)) {
      if (acc.read && staged(acc.array)) stage_radius = std::max(stage_radius, acc.radius);
    }
  }
  d.halo_radius = stage_radius + (d.recompute_halo ? consumer_halo : 0);

  // ---- barriers per k-iteration ----
  const bool stages_inputs = !d.pivot_arrays.empty();
  d.barriers = (stages_inputs ? 1 : 0) + sync_boundaries;

  // ---- SMEM footprint ----
  const LaunchConfig& launch = program_.launch();
  const long tile_elems = static_cast<long>(
      (launch.block_x + 2L * d.halo_radius + 1) *  // +1: bank-conflict padding column
      (launch.block_y + 2L * d.halo_radius));
  long smem = 0;
  for (ArrayId a : d.pivot_arrays) {
    smem += tile_elems * arrays_[static_cast<std::size_t>(a)].elem_bytes;
  }
  // Non-pivot high-thread-load arrays still need a private staging tile;
  // segments run sequentially, so one scratch buffer sized for the largest
  // such tile is shared.
  long scratch = 0;
  for (KernelId k : members) {
    if (!program_.kernel(k).smem_in_original) continue;
    for (const Access& acc : accesses_of(k)) {
      if (!acc.read || acc.thread_load <= 1) continue;
      if (staged(acc.array)) continue;
      const long elems = static_cast<long>((launch.block_x + 2L * acc.radius + 1) *
                                           (launch.block_y + 2L * acc.radius));
      scratch = std::max(scratch, elems * arrays_[static_cast<std::size_t>(acc.array)].elem_bytes);
    }
  }
  d.smem_per_block_bytes = smem + scratch;

  // ---- register estimate ----
  int max_regs = 0;
  int sum_secondary = 0;
  int max_addr = 0;
  for (KernelId k : members) {
    const KernelInfo& kernel = program_.kernel(k);
    max_regs = std::max(max_regs, kernel.regs_per_thread);
    max_addr = std::max(max_addr, kernel.addr_regs);
    sum_secondary += std::max(0, kernel.regs_per_thread - kernel.addr_regs);
  }
  // The largest member's allocation is the floor; other members leak a
  // fraction of their live values past the barriers.
  const int largest_payload = max_regs;  // includes its own addr regs
  sum_secondary -= std::max(0, max_regs - max_addr);
  const long halo_pts = halo_points(launch, d.halo_radius);
  const int h_th = d.recompute_halo
                       ? static_cast<int>((halo_pts + launch.threads_per_block() - 1) /
                                          launch.threads_per_block())
                       : 0;
  d.regs_per_thread =
      largest_payload +
      static_cast<int>(std::ceil(params_.secondary_reg_fraction * sum_secondary)) +
      params_.regs_per_pivot * static_cast<int>(d.pivot_arrays.size()) +
      params_.fused_addr_regs + h_th;

  // ---- FLOPs ----
  double flops = 0.0;
  for (KernelId k : members) flops += program_.kernel(k).flops_per_site;
  double halo_flops = 0.0;
  if (d.recompute_halo) {
    const double halo_fraction = static_cast<double>(halo_points(launch, consumer_halo)) /
                                 launch.threads_per_block();
    // Members whose work is redone on halo sites, each kernel counted once.
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (j > 0 && members[j] == members[j - 1]) continue;
      const std::span<const Access> accesses = accesses_of(members[j]);
      const bool recomputes = std::any_of(accesses.begin(), accesses.end(), [&](const Access& acc) {
        return acc.write && mark(acc.array).halo_until > static_cast<int>(j);
      });
      if (recomputes) halo_flops += program_.kernel(members[j]).flops_per_site * halo_fraction;
    }
  }
  d.flops_per_site = flops + halo_flops;
  d.halo_flops_per_site = halo_flops;
  return d;
}

}  // namespace kf
