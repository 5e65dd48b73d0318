#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace kf {

double mean(std::span<const double> xs) {
  KF_REQUIRE(!xs.empty(), "mean of empty range");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  KF_REQUIRE(!xs.empty(), "variance of empty range");
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stdev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) {
  KF_REQUIRE(!xs.empty(), "median of empty range");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return (n % 2 == 1) ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double geomean(std::span<const double> xs) {
  KF_REQUIRE(!xs.empty(), "geomean of empty range");
  double acc = 0.0;
  for (double x : xs) {
    KF_REQUIRE(x > 0.0, "geomean requires positive values, got " << x);
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

double min_of(std::span<const double> xs) {
  KF_REQUIRE(!xs.empty(), "min of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  KF_REQUIRE(!xs.empty(), "max of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  KF_REQUIRE(xs.size() == ys.size(), "pearson requires equal lengths");
  KF_REQUIRE(xs.size() >= 2, "pearson requires at least two points");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  KF_REQUIRE(sxx > 0.0 && syy > 0.0, "pearson undefined for constant series");
  return sxy / std::sqrt(sxx * syy);
}

double mape(std::span<const double> reference, std::span<const double> predicted) {
  KF_REQUIRE(reference.size() == predicted.size(), "mape requires equal lengths");
  KF_REQUIRE(!reference.empty(), "mape of empty range");
  double acc = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    KF_REQUIRE(reference[i] != 0.0, "mape reference value must be nonzero");
    acc += std::abs((predicted[i] - reference[i]) / reference[i]);
  }
  return acc / static_cast<double>(reference.size());
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stdev() const noexcept { return std::sqrt(variance()); }

}  // namespace kf
