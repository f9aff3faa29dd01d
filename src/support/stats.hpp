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

/// Streaming quantile accumulator: the P-squared algorithm of Jain &
/// Chlamtac (CACM 1985).  Tracks five markers in O(1) memory per
/// observation; exact below five samples, an interpolated estimate
/// above.  The estimate is a pure function of the insertion sequence,
/// so feeding samples in a deterministic order gives a bit-identical
/// value on every run (the property the batched Monte Carlo summary
/// mode relies on).
class P2Quantile {
 public:
  /// q in (0, 1); throws std::invalid_argument otherwise.
  explicit P2Quantile(double q);

  void add(double x);
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Current estimate; 0.0 before the first observation.
  [[nodiscard]] double estimate() const;

 private:
  double q_;
  std::size_t count_ = 0;
  double heights_[5] = {};   ///< marker heights q0..q4
  double positions_[5] = {}; ///< actual marker positions n0..n4 (1-based)
  double desired_[5] = {};   ///< desired marker positions n'0..n'4
};

}  // namespace leak
