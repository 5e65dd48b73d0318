#include "ir/stencil_pattern.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace kf {

StencilPattern::StencilPattern(std::vector<Offset> offsets) : offsets_(std::move(offsets)) {
  std::sort(offsets_.begin(), offsets_.end());
  offsets_.erase(std::unique(offsets_.begin(), offsets_.end()), offsets_.end());
  // Sorted by (dx, dy, dz), so equal (dx, dy) pairs are adjacent: the
  // thread load counts the runs.
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    const Offset& o = offsets_[i];
    if (i == 0 || o.dx != offsets_[i - 1].dx || o.dy != offsets_[i - 1].dy) ++thread_load_;
    horizontal_radius_ = std::max({horizontal_radius_, std::abs(o.dx), std::abs(o.dy)});
  }
}

StencilPattern StencilPattern::point() { return StencilPattern({{0, 0, 0}}); }

StencilPattern StencilPattern::cross2d(int radius) {
  KF_REQUIRE(radius >= 0, "cross2d radius must be non-negative");
  std::vector<Offset> o{{0, 0, 0}};
  for (int r = 1; r <= radius; ++r) {
    o.push_back({r, 0, 0});
    o.push_back({-r, 0, 0});
    o.push_back({0, r, 0});
    o.push_back({0, -r, 0});
  }
  return StencilPattern(std::move(o));
}

StencilPattern StencilPattern::box2d(int radius) {
  KF_REQUIRE(radius >= 0, "box2d radius must be non-negative");
  std::vector<Offset> o;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      o.push_back({dx, dy, 0});
    }
  }
  return StencilPattern(std::move(o));
}

StencilPattern StencilPattern::column(int radius) {
  KF_REQUIRE(radius >= 0, "column radius must be non-negative");
  std::vector<Offset> o{{0, 0, 0}};
  for (int r = 1; r <= radius; ++r) {
    o.push_back({0, 0, r});
    o.push_back({0, 0, -r});
  }
  return StencilPattern(std::move(o));
}

StencilPattern StencilPattern::backward2d(int points) {
  KF_REQUIRE(points >= 1 && points <= 4, "backward2d supports 1..4 points");
  static const Offset order[4] = {{0, 0, 0}, {-1, 0, 0}, {0, -1, 0}, {-1, -1, 0}};
  std::vector<Offset> o(order, order + points);
  return StencilPattern(std::move(o));
}

StencilPattern StencilPattern::with_thread_load(int load) {
  KF_REQUIRE(load >= 1, "thread load must be at least 1");
  // Enumerate offsets by Chebyshev ring, then by (dy, dx), until `load`
  // distinct horizontal offsets are collected.
  std::vector<Offset> o;
  o.push_back({0, 0, 0});
  for (int ring = 1; static_cast<int>(o.size()) < load; ++ring) {
    for (int dy = -ring; dy <= ring && static_cast<int>(o.size()) < load; ++dy) {
      for (int dx = -ring; dx <= ring && static_cast<int>(o.size()) < load; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
        o.push_back({dx, dy, 0});
      }
    }
  }
  return StencilPattern(std::move(o));
}

int StencilPattern::vertical_radius() const noexcept {
  int r = 0;
  for (const auto& o : offsets_) r = std::max(r, std::abs(o.dz));
  return r;
}

StencilPattern StencilPattern::merged_with(const StencilPattern& other) const {
  std::vector<Offset> o = offsets_;
  o.insert(o.end(), other.offsets_.begin(), other.offsets_.end());
  return StencilPattern(std::move(o));
}

bool StencilPattern::contains(const Offset& o) const noexcept {
  return std::binary_search(offsets_.begin(), offsets_.end(), o);
}

std::string StencilPattern::to_string() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    if (i) os << ' ';
    os << '(' << offsets_[i].dx << ',' << offsets_[i].dy << ',' << offsets_[i].dz << ')';
  }
  os << '}';
  return os.str();
}

}  // namespace kf
