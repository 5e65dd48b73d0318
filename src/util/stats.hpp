// Descriptive statistics for benches and telemetry: percentiles of a sorted
// sample and a running (Welford) summary.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace kf {

/// Linear-interpolation percentile of an ascending range, p in [0, 100]:
/// 0 when empty, the sample itself when there is one.
double percentile(std::span<const double> sorted, double p);

/// Running summary accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< population variance
  double stdev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace kf
