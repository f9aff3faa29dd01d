// Tests for the statistics kit, and for the Kolmogorov-Smirnov
// yardstick (tests/oracles/) the Monte Carlo suites measure against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/support/random.hpp"
#include "src/support/stats.hpp"
#include "tests/oracles/yardsticks.hpp"

namespace leak {
namespace {

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
    const double x = rng.normal();
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

TEST(P2QuantileTest, RejectsDegenerateQuantiles) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2QuantileTest, EmptyAndSmallSamplesAreExact) {
  P2Quantile med(0.5);
  EXPECT_EQ(med.estimate(), 0.0);
  med.add(3.0);
  EXPECT_DOUBLE_EQ(med.estimate(), 3.0);
  med.add(1.0);
  med.add(2.0);
  // Below five observations the estimate is the exact type-7 quantile.
  EXPECT_DOUBLE_EQ(med.estimate(), 2.0);
  med.add(4.0);
  EXPECT_DOUBLE_EQ(med.estimate(), quantile({3.0, 1.0, 2.0, 4.0}, 0.5));
}

TEST(P2QuantileTest, TracksExactQuantilesOfRandomSamples) {
  for (const double q : {0.25, 0.5, 0.9}) {
    Rng rng(123);
    P2Quantile est(q);
    std::vector<double> sample;
    sample.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      const double x = rng.normal(10.0, 3.0);
      est.add(x);
      sample.push_back(x);
    }
    const double exact = quantile(std::move(sample), q);
    EXPECT_NEAR(est.estimate(), exact, 0.05) << "q=" << q;
    EXPECT_EQ(est.count(), 20000u);
  }
}

TEST(P2QuantileTest, DeterministicForTheSameInsertionOrder) {
  Rng rng_a(7);
  Rng rng_b(7);
  P2Quantile a(0.5);
  P2Quantile b(0.5);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng_a.uniform();
    a.add(x);
    b.add(rng_b.uniform());
  }
  EXPECT_EQ(a.estimate(), b.estimate());
}

TEST(P2QuantileTest, HandlesPointMassSamples) {
  // Degenerate input (all observations equal) must return that value.
  P2Quantile med(0.5);
  for (int i = 0; i < 100; ++i) med.add(32.0);
  EXPECT_DOUBLE_EQ(med.estimate(), 32.0);
}

}  // namespace
}  // namespace leak
