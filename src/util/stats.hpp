// Small descriptive-statistics helpers used by benches and tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace kf {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  ///< population variance
double stdev(std::span<const double> xs);
double median(std::vector<double> xs);        ///< by value: needs to sort
/// Linear-interpolation percentile of an ascending range, p in [0, 100]:
/// 0 when empty, the sample itself when there is one.
double percentile(std::span<const double> sorted, double p);
double geomean(std::span<const double> xs);   ///< requires all xs > 0
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// Pearson correlation coefficient; requires equal, non-trivial lengths.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Mean absolute percentage error of predictions vs. reference (reference != 0).
double mape(std::span<const double> reference, std::span<const double> predicted);

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
