#include "src/support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace leak {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q not in [0,1]");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= xs.size()) return xs.back();
  const double w = pos - static_cast<double>(i);
  return xs[i] * (1.0 - w) + xs[i + 1] * w;
}

P2Quantile::P2Quantile(double q) : q_(q) {
  if (!(q > 0.0) || !(q < 1.0)) {
    throw std::invalid_argument("P2Quantile: q not in (0,1)");
  }
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_, heights_ + 5);
      for (int i = 0; i < 5; ++i) {
        positions_[i] = static_cast<double>(i + 1);
      }
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * q_;
      desired_[2] = 1.0 + 4.0 * q_;
      desired_[3] = 3.0 + 2.0 * q_;
      desired_[4] = 5.0;
    }
    return;
  }
  ++count_;

  // Locate the cell containing x, extending the extremes in place.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && heights_[k + 1] <= x) ++k;
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  const double dn[5] = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
  for (int i = 0; i < 5; ++i) desired_[i] += dn[i];

  // Adjust the three interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double right = positions_[i + 1] - positions_[i];
    const double left = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction; fall back to linear when the
      // parabola would leave the bracketing heights.
      const double parabolic =
          heights_[i] +
          s / (positions_[i + 1] - positions_[i - 1]) *
              ((positions_[i] - positions_[i - 1] + s) *
                   (heights_[i + 1] - heights_[i]) / right +
               (positions_[i + 1] - positions_[i] - s) *
                   (heights_[i] - heights_[i - 1]) / -left);
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else {
        const int j = s > 0.0 ? i + 1 : i - 1;
        heights_[i] += s * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += s;
    }
  }
}

double P2Quantile::estimate() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact small-sample quantile over the buffered observations.
    std::vector<double> xs(heights_, heights_ + count_);
    return quantile(std::move(xs), q_);
  }
  return heights_[2];
}

}  // namespace leak
