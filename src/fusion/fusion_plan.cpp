#include "fusion/fusion_plan.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/error.hpp"

namespace kf {

FusionPlan::FusionPlan(int num_kernels) : num_kernels_(num_kernels) {
  KF_REQUIRE(num_kernels >= 0, "negative kernel count");
  members_.resize(static_cast<std::size_t>(num_kernels));
  begin_.resize(static_cast<std::size_t>(num_kernels) + 1);
  owner_.resize(static_cast<std::size_t>(num_kernels));
  for (KernelId k = 0; k < num_kernels; ++k) {
    members_[static_cast<std::size_t>(k)] = k;
    begin_[static_cast<std::size_t>(k)] = k;
    owner_[static_cast<std::size_t>(k)] = k;
  }
  begin_[static_cast<std::size_t>(num_kernels)] = num_kernels;
}

void FusionPlan::validate_partition() {
  // Shares owner_ as the seen-marker so validation allocates nothing.
  owner_.assign(static_cast<std::size_t>(num_kernels_), -1);
  int total = 0;
  for (int g = 0; g < num_groups(); ++g) {
    for (KernelId k : group(g)) {
      KF_REQUIRE(k >= 0 && k < num_kernels_, "kernel id " << k << " out of range");
      KF_REQUIRE(owner_[static_cast<std::size_t>(k)] < 0,
                 "kernel " << k << " appears in two groups");
      owner_[static_cast<std::size_t>(k)] = g;
      ++total;
    }
  }
  KF_REQUIRE(total == num_kernels_,
             "groups cover " << total << " kernels, expected " << num_kernels_);
}

FusionPlan FusionPlan::from_groups(int num_kernels,
                                   std::vector<std::vector<KernelId>> groups) {
  FusionPlan plan;
  plan.num_kernels_ = num_kernels;
  plan.members_.reserve(static_cast<std::size_t>(num_kernels));
  plan.begin_.push_back(0);
  for (const auto& g : groups) {
    if (g.empty()) continue;
    plan.members_.insert(plan.members_.end(), g.begin(), g.end());
    plan.begin_.push_back(static_cast<std::int32_t>(plan.members_.size()));
  }
  plan.validate_partition();
  return plan;
}

void FusionPlan::assign_flat(int num_kernels, std::span<const KernelId> members,
                             std::span<const std::int32_t> offsets) {
  KF_REQUIRE(num_kernels >= 0, "negative kernel count");
  KF_REQUIRE(!offsets.empty() && offsets.front() == 0 &&
                 offsets.back() == static_cast<std::int32_t>(members.size()),
             "flat group offsets do not cover the member array");
  num_kernels_ = num_kernels;
  members_.assign(members.begin(), members.end());
  begin_.clear();
  begin_.push_back(0);
  for (std::size_t g = 0; g + 1 < offsets.size(); ++g) {
    KF_REQUIRE(offsets[g] <= offsets[g + 1], "flat group offsets not monotone");
    if (offsets[g] == offsets[g + 1]) continue;  // drop empty groups
    begin_.push_back(offsets[g + 1]);
  }
  // Dropping empty groups leaves members_ contiguous already (an empty group
  // contributes no members), so only the boundaries needed rewriting.
  validate_partition();
}

void FusionPlan::rebuild_owners() {
  owner_.assign(static_cast<std::size_t>(num_kernels_), -1);
  for (int g = 0; g < num_groups(); ++g) {
    for (std::int32_t i = begin_[static_cast<std::size_t>(g)];
         i < begin_[static_cast<std::size_t>(g) + 1]; ++i) {
      owner_[static_cast<std::size_t>(members_[static_cast<std::size_t>(i)])] = g;
    }
  }
}

void FusionPlan::check_group_index(int g) const {
  KF_REQUIRE(g >= 0 && g < num_groups(), "group index " << g << " out of range");
}

std::vector<std::vector<KernelId>> FusionPlan::groups() const {
  std::vector<std::vector<KernelId>> out;
  out.reserve(static_cast<std::size_t>(num_groups()));
  for (int g = 0; g < num_groups(); ++g) {
    const auto span = group(g);
    out.emplace_back(span.begin(), span.end());
  }
  return out;
}

std::span<const KernelId> FusionPlan::group(int g) const {
  check_group_index(g);
  const auto b = static_cast<std::size_t>(begin_[static_cast<std::size_t>(g)]);
  const auto e = static_cast<std::size_t>(begin_[static_cast<std::size_t>(g) + 1]);
  return std::span<const KernelId>(members_.data() + b, e - b);
}

int FusionPlan::group_of(KernelId k) const {
  KF_REQUIRE(k >= 0 && k < num_kernels_, "kernel id " << k << " out of range");
  return owner_[static_cast<std::size_t>(k)];
}

int FusionPlan::fused_group_count() const noexcept {
  int count = 0;
  for (int g = 0; g < num_groups(); ++g) {
    count += begin_[static_cast<std::size_t>(g) + 1] -
                     begin_[static_cast<std::size_t>(g)] >=
                 2
                 ? 1
                 : 0;
  }
  return count;
}

int FusionPlan::fused_kernel_count() const noexcept {
  int count = 0;
  for (int g = 0; g < num_groups(); ++g) {
    const int size = begin_[static_cast<std::size_t>(g) + 1] -
                     begin_[static_cast<std::size_t>(g)];
    count += size >= 2 ? size : 0;
  }
  return count;
}

int FusionPlan::merge_groups(int a, int b) {
  check_group_index(a);
  check_group_index(b);
  KF_REQUIRE(a != b, "cannot merge a group with itself");
  if (a > b) std::swap(a, b);
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  const std::int32_t sb = begin_[ib + 1] - begin_[ib];
  // Bring b's members adjacent to a's, then sort the union in place — the
  // flat-storage equivalent of append-and-sort, with no heap traffic.
  std::rotate(members_.begin() + begin_[ia + 1], members_.begin() + begin_[ib],
              members_.begin() + begin_[ib + 1]);
  std::sort(members_.begin() + begin_[ia],
            members_.begin() + begin_[ia + 1] + sb);
  for (std::size_t g = ia + 1; g < ib; ++g) begin_[g] += sb;
  begin_.erase(begin_.begin() + static_cast<std::ptrdiff_t>(ib));
  rebuild_owners();
  return a;
}

void FusionPlan::move_kernel(KernelId k, int g) {
  check_group_index(g);
  const int from = group_of(k);
  if (from == g) return;
  const auto ifrom = static_cast<std::size_t>(from);
  const auto ig = static_cast<std::size_t>(g);
  const auto p = static_cast<std::ptrdiff_t>(
      std::find(members_.begin() + begin_[ifrom], members_.begin() + begin_[ifrom + 1], k) -
      members_.begin());
  if (from < g) {
    // Slide k right to the end of group g; everything between shifts left.
    std::rotate(members_.begin() + p, members_.begin() + p + 1,
                members_.begin() + begin_[ig + 1]);
    for (std::size_t i = ifrom + 1; i <= ig; ++i) begin_[i] -= 1;
    std::sort(members_.begin() + begin_[ig], members_.begin() + begin_[ig + 1]);
  } else {
    // Slide k left to the front of group g; everything between shifts right.
    std::rotate(members_.begin() + begin_[ig + 1], members_.begin() + p,
                members_.begin() + p + 1);
    for (std::size_t i = ig + 1; i <= ifrom; ++i) begin_[i] += 1;
    std::sort(members_.begin() + begin_[ig], members_.begin() + begin_[ig + 1]);
  }
  // An emptied source group collapses to a zero-width boundary; drop it.
  if (begin_[ifrom] == begin_[ifrom + 1]) {
    begin_.erase(begin_.begin() + static_cast<std::ptrdiff_t>(ifrom));
  }
  rebuild_owners();
}

void FusionPlan::split_group(int g) {
  check_group_index(g);
  const auto ig = static_cast<std::size_t>(g);
  const std::int32_t sz = begin_[ig + 1] - begin_[ig];
  if (sz <= 1) return;
  // Slide the group's members to the end (stored order preserved) and turn
  // each into a singleton boundary.
  std::rotate(members_.begin() + begin_[ig], members_.begin() + begin_[ig + 1],
              members_.end());
  for (std::size_t i = ig + 1; i + 1 < begin_.size(); ++i) {
    begin_[i] = begin_[i + 1] - sz;
  }
  begin_.pop_back();
  const auto n = static_cast<std::int32_t>(num_kernels_);
  for (std::int32_t v = n - sz + 1; v <= n; ++v) begin_.push_back(v);
  rebuild_owners();
}

void FusionPlan::canonicalize() {
  const int n = num_groups();
  for (int g = 0; g < n; ++g) {
    std::sort(members_.begin() + begin_[static_cast<std::size_t>(g)],
              members_.begin() + begin_[static_cast<std::size_t>(g) + 1]);
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return members_[static_cast<std::size_t>(begin_[static_cast<std::size_t>(a)])] <
           members_[static_cast<std::size_t>(begin_[static_cast<std::size_t>(b)])];
  });
  std::vector<KernelId> new_members;
  new_members.reserve(members_.size());
  std::vector<std::int32_t> new_begin;
  new_begin.reserve(begin_.size());
  new_begin.push_back(0);
  for (int g : order) {
    const auto span = group(g);
    new_members.insert(new_members.end(), span.begin(), span.end());
    new_begin.push_back(static_cast<std::int32_t>(new_members.size()));
  }
  members_ = std::move(new_members);
  begin_ = std::move(new_begin);
  rebuild_owners();
}

std::string FusionPlan::to_string() const {
  FusionPlan canon = *this;
  canon.canonicalize();
  std::ostringstream os;
  for (int g = 0; g < canon.num_groups(); ++g) {
    if (g) os << ' ';
    os << '{';
    const auto span = canon.group(g);
    for (std::size_t i = 0; i < span.size(); ++i) {
      if (i) os << ',';
      os << span[i];
    }
    os << '}';
  }
  return os.str();
}

FusionPlan FusionPlan::parse(int num_kernels, const std::string& text) {
  std::vector<std::vector<KernelId>> groups;
  std::vector<KernelId> current;
  bool in_group = false;
  std::string number;
  auto flush_number = [&] {
    if (number.empty()) return;
    KF_REQUIRE(in_group, "number outside a group in plan text");
    current.push_back(static_cast<KernelId>(std::stol(number)));
    number.clear();
  };
  for (char c : text) {
    if (c == '{') {
      KF_REQUIRE(!in_group, "nested '{' in plan text");
      in_group = true;
      current.clear();
    } else if (c == '}') {
      KF_REQUIRE(in_group, "stray '}' in plan text");
      flush_number();
      groups.push_back(current);
      in_group = false;
    } else if (c == ',' ) {
      flush_number();
    } else if (c >= '0' && c <= '9') {
      number += c;
    } else if (c == ' ' || c == '\n' || c == '\t') {
      flush_number();
    } else {
      KF_REQUIRE(false, "unexpected character '" << c << "' in plan text");
    }
  }
  KF_REQUIRE(!in_group, "unterminated group in plan text");
  return from_groups(num_kernels, std::move(groups));
}

bool operator==(const FusionPlan& a, const FusionPlan& b) {
  if (a.num_kernels_ != b.num_kernels_) return false;
  FusionPlan ca = a;
  FusionPlan cb = b;
  ca.canonicalize();
  cb.canonicalize();
  return ca.members_ == cb.members_ && ca.begin_ == cb.begin_;
}

}  // namespace kf
