#include "gpu/traffic_model.hpp"

#include <array>
#include <vector>

#include "util/error.hpp"

namespace kf {

TrafficBreakdown compute_traffic(const Program& program, const LaunchDescriptor& launch) {
  KF_REQUIRE(!launch.members.empty(), "launch descriptor has no members");
  TrafficBreakdown t;
  const double sites = static_cast<double>(program.grid().total_sites());
  const double pivot_halo = halo_area_factor(program.launch(), launch.halo_radius);

  // Per-array flags, indexed by ArrayId: kStaged marks the launch's pivot
  // and read-only-cache arrays once, so an access tests one byte instead of
  // searching both lists; kResident marks the staged arrays already in SMEM
  // (loaded or produced in-group). This runs once per objective cache miss,
  // so the common case stays on the stack (a std::set here cost one node
  // allocation per newly-resident array); outsized programs fall back to
  // one heap vector per call.
  constexpr char kStaged = 1;
  constexpr char kResident = 2;
  const std::size_t num_arrays = program.arrays().size();
  std::array<char, 256> flags_stack{};
  std::vector<char> flags_heap;
  char* flags = flags_stack.data();
  if (num_arrays > flags_stack.size()) {
    flags_heap.assign(num_arrays, 0);
    flags = flags_heap.data();
  }
  for (const std::vector<ArrayId>* staged : {&launch.pivot_arrays, &launch.rocache_arrays}) {
    for (ArrayId a : *staged) {
      KF_REQUIRE(a >= 0 && static_cast<std::size_t>(a) < num_arrays,
                 "staged array id " << a << " out of range");
      flags[static_cast<std::size_t>(a)] = kStaged;
    }
  }

  for (KernelId k : launch.members) {
    const KernelInfo& kernel = program.kernel(k);
    for (const ArrayAccess& acc : kernel.accesses) {
      const double elem = program.array(acc.array).elem_bytes;
      char& flag = flags[static_cast<std::size_t>(acc.array)];
      if (acc.is_read()) {
        const double use_bytes = sites * elem * acc.pattern.thread_load();
        if (flag != 0) {
          if ((flag & kResident) != 0 || acc.reads_own_product) {
            // Reuse across segments, or the kernel's own freshly-produced
            // values (born in SMEM) — either way, no GMEM read.
            t.smem_bytes += use_bytes;
          } else {
            const double tile_bytes = sites * elem * pivot_halo;
            t.load_bytes += tile_bytes;
            t.halo_bytes += tile_bytes - sites * elem;
            t.smem_bytes += use_bytes;
          }
          flag |= kResident;
        } else if (acc.pattern.thread_load() > 1 && kernel.smem_in_original) {
          // Privately staged, original-kernel style: tile + own halo.
          const double own_halo =
              halo_area_factor(program.launch(), acc.pattern.horizontal_radius());
          const double tile_bytes = sites * elem * own_halo;
          t.load_bytes += tile_bytes;
          t.halo_bytes += tile_bytes - sites * elem;
          t.smem_bytes += use_bytes;
        } else {
          // Streaming read: every offset dereference hits GMEM/L1 once.
          t.load_bytes += use_bytes;
        }
      }
      if (acc.is_write()) {
        t.store_bytes += sites * elem;
        if (flag != 0) {
          // Produced into SMEM: later members of this group read it there.
          t.smem_bytes += sites * elem;
          flag |= kResident;
        }
      }
    }
  }
  return t;
}

TrafficBreakdown program_traffic(const Program& program) {
  TrafficBreakdown total;
  for (KernelId k = 0; k < program.num_kernels(); ++k) {
    const TrafficBreakdown t = compute_traffic(program, descriptor_for_original(program, k));
    total.load_bytes += t.load_bytes;
    total.store_bytes += t.store_bytes;
    total.halo_bytes += t.halo_bytes;
    total.smem_bytes += t.smem_bytes;
  }
  return total;
}

}  // namespace kf
