// Small statistics kit: single-pass moments and quantiles.
#pragma once

#include <cstddef>
#include <vector>

namespace leak {

/// Welford single-pass mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile of a sample using linear interpolation (type-7, the numpy
/// default).  q in [0,1].  Copies and sorts the input.
double quantile(std::vector<double> xs, double q);

}  // namespace leak
