// Tests for the statistics kit, and for the Kolmogorov-Smirnov
// yardstick (tests/oracles/) the Monte Carlo suites measure against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/support/random.hpp"
#include "src/support/stats.hpp"
#include "tests/oracles/yardsticks.hpp"

namespace leak {
namespace {

/// Standard normal draw (Box-Muller): the shift-invariance check wants
/// a sample with unit spread, and no production code draws normals.
double normal(Rng& rng) {
  const double u = 1.0 - rng.uniform();  // (0, 1]: log stays finite
  return std::sqrt(-2.0 * std::log(u)) *
         std::cos(2.0 * std::numbers::pi * rng.uniform());
}

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, ShiftInvariantVariance) {
  RunningStats a, b;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = normal(rng);
    a.add(x);
    b.add(x + 1e6);
  }
  EXPECT_NEAR(a.variance(), b.variance(), 1e-4);
}

TEST(Quantile, MedianAndExtremes) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
}

TEST(Quantile, Interpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Quantile, Throws) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(KsDistance, UniformSampleAgainstUniformCdf) {
  Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.uniform());
  const double d = oracle::ks_distance(xs, [](double x) {
    return std::clamp(x, 0.0, 1.0);
  });
  // KS statistic for a correct model ~ 1.36/sqrt(n) at 95%.
  EXPECT_LT(d, 1.95 / std::sqrt(50000.0));
}

TEST(KsDistance, DetectsWrongModel) {
  Rng rng(10);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.uniform());
  // Model claims everything is below 0.5: distance ~ 0.5.
  const double d = oracle::ks_distance(xs, [](double x) {
    return x < 0.5 ? 2.0 * std::clamp(x, 0.0, 0.5) : 1.0;
  });
  EXPECT_GT(d, 0.3);
}

TEST(KsDistance, PointMassHandled) {
  // All-zero sample vs a cdf with mass 0.7 at 0: distance 0.3.
  std::vector<double> xs(100, 0.0);
  const double d =
      oracle::ks_distance(xs, [](double x) { return x >= 0.0 ? 0.7 : 0.0; });
  EXPECT_NEAR(d, 0.7, 1e-12);  // F_n(0-) = 0 vs model 0.7
}

TEST(KsDistance, EmptyThrows) {
  EXPECT_THROW(oracle::ks_distance({}, [](double) { return 0.0; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace leak
