#include "ir/kernel_info.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"

namespace kf {

const char* to_string(AccessMode mode) noexcept {
  switch (mode) {
    case AccessMode::Read:
      return "read";
    case AccessMode::Write:
      return "write";
    case AccessMode::ReadWrite:
      return "readwrite";
  }
  return "?";
}

const ArrayAccess* KernelInfo::find_access(ArrayId array) const noexcept {
  for (const auto& a : accesses) {
    if (a.array == array) return &a;
  }
  return nullptr;
}

bool KernelInfo::reads(ArrayId array) const noexcept {
  const ArrayAccess* a = find_access(array);
  return a != nullptr && a->is_read();
}

bool KernelInfo::writes(ArrayId array) const noexcept {
  const ArrayAccess* a = find_access(array);
  return a != nullptr && a->is_write();
}

int KernelInfo::max_halo_radius() const noexcept {
  int r = 0;
  for (const auto& a : accesses) {
    if (a.is_read()) r = std::max(r, a.pattern.horizontal_radius());
  }
  return r;
}

double KernelInfo::flops_for_array(ArrayId array) const noexcept {
  const ArrayAccess* a = find_access(array);
  return a ? a->flops : 0.0;
}

void KernelInfo::derive_metadata_from_body() {
  KF_REQUIRE(!body.empty(), "kernel '" << name << "' has no body to derive from");

  struct Usage {
    std::vector<Offset> read_offsets;
    bool written = false;
    double flops = 0.0;
    int first_write_stmt = -1;
    int first_read_stmt = -1;
  };
  std::map<ArrayId, Usage> usage;

  double total_flops = 0.0;
  for (std::size_t si = 0; si < body.size(); ++si) {
    const auto& stmt = body[si];
    KF_REQUIRE(stmt.out != kInvalidArray, "statement writes an invalid array");
    const int stmt_flops = stmt.expr.flops();
    total_flops += stmt_flops;
    const auto loads = stmt.expr.loads();
    // Attribute the statement's FLOPs evenly across the arrays it loads —
    // the paper's Flop(x) accounting needs per-array shares, not exactness.
    const double share =
        loads.empty() ? 0.0 : static_cast<double>(stmt_flops) / loads.size();
    for (const auto& [array, offset] : loads) {
      Usage& u = usage[array];
      u.read_offsets.push_back(offset);
      u.flops += share;
      if (u.first_read_stmt < 0) u.first_read_stmt = static_cast<int>(si);
    }
    Usage& w = usage[stmt.out];
    w.written = true;
    if (w.first_write_stmt < 0) w.first_write_stmt = static_cast<int>(si);
  }

  accesses.clear();
  for (auto& [array, u] : usage) {
    ArrayAccess a;
    a.array = array;
    if (u.written && !u.read_offsets.empty()) {
      a.mode = AccessMode::ReadWrite;
      a.reads_own_product =
          u.first_write_stmt >= 0 && u.first_read_stmt > u.first_write_stmt;
    } else if (u.written) {
      a.mode = AccessMode::Write;
    } else {
      a.mode = AccessMode::Read;
    }
    a.pattern = u.read_offsets.empty() ? StencilPattern::point()
                                       : StencilPattern(std::move(u.read_offsets));
    a.flops = u.flops;
    accesses.push_back(std::move(a));
  }
  flops_per_site = total_flops;
}

}  // namespace kf
