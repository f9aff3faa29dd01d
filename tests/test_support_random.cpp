// Statistical sanity tests for the deterministic PRNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/support/random.hpp"
#include "src/support/stats.hpp"

namespace leak {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanVariance) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 3e-3);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 2e-3);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto k = rng.uniform_index(10);
    ASSERT_LT(k, 10u);
    ++counts[static_cast<std::size_t>(k)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(33);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  // Regression pin: splitmix64 from seed 0 (first output).
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

// bernoulli_cut is the integer form of Rng::bernoulli: for a raw draw
// x, (x >> 11) < bernoulli_cut(p) must hold exactly when
// (x >> 11) * 2^-53 < p, the comparison bernoulli(p) makes, and
// bernoulli_select on the cut must pick its `hit` value then.
bool float_hit(std::uint64_t x, double p) {
  return static_cast<double>(x >> 11) * 0x1.0p-53 < p;
}
bool cut_hit(std::uint64_t x, double p) {
  return static_cast<std::int64_t>(x >> 11) < bernoulli_cut(p);
}
bool select_hit(std::uint64_t x, double p) {
  return bernoulli_select(x, bernoulli_cut(p), 1.0, -0.0) == 1.0;
}

TEST(BernoulliCut, SelectKeepsTheChosenBitsExactly) {
  constexpr std::uint64_t kLow = 0;  // (x >> 11) == 0
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bernoulli_select(kLow, 1, -0.0, 2.0)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(bernoulli_select(kLow, 0, -0.0, 2.0), 2.0);
  EXPECT_TRUE(std::isnan(bernoulli_select(~kLow, 0, 1.0, nan)));
}

TEST(BernoulliCut, EdgeProbabilities) {
  constexpr std::int64_t kAll = std::int64_t{1} << 53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bernoulli_cut(-0.0), 0);
  EXPECT_EQ(bernoulli_cut(0.0), 0);
  EXPECT_EQ(bernoulli_cut(-1.0), 0);
  EXPECT_EQ(bernoulli_cut(-kInf), 0);
  EXPECT_EQ(bernoulli_cut(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(bernoulli_cut(1e-320), 1);
  EXPECT_EQ(bernoulli_cut(0x1.0p-53), 1);
  EXPECT_EQ(bernoulli_cut(0.5), kAll / 2);
  EXPECT_EQ(bernoulli_cut(std::nextafter(1.0, 0.0)), kAll - 1);
  EXPECT_EQ(bernoulli_cut(1.0), kAll);
  EXPECT_EQ(bernoulli_cut(2.0), kAll);
  EXPECT_EQ(bernoulli_cut(kInf), kAll);
}

// Raw draws at the cut, one below and one above it, with the 11 bits
// the shift drops all 0 and all 1.
TEST(BernoulliCut, AgreesWithTheFloatingCompareAroundEachCut) {
  constexpr std::int64_t kTop = (std::int64_t{1} << 53) - 1;
  const double ps[] = {-0.0, 0.0,  1e-320, 0x1.0p-53, 1.0 / 3.0,
                       0.5,  std::nextafter(1.0, 0.0), 1.0,
                       std::numeric_limits<double>::quiet_NaN()};
  for (const double p : ps) {
    const std::int64_t cut = bernoulli_cut(p);
    for (const std::int64_t m : {cut - 1, cut, cut + 1}) {
      const auto top = static_cast<std::uint64_t>(std::clamp(m, {}, kTop));
      for (const std::uint64_t low : {0x000ULL, 0x7FFULL}) {
        const std::uint64_t x = (top << 11) | low;
        EXPECT_EQ(cut_hit(x, p), float_hit(x, p)) << "p=" << p << " x=" << x;
        EXPECT_EQ(select_hit(x, p), float_hit(x, p))
            << "p=" << p << " x=" << x;
      }
    }
  }
}

// 10^6 seeded pairs: p uniform on [0, 1), p with a random binary
// exponent (so p * 2^53 is rarely an integer), and p within one ulp of
// the draw's own value.
TEST(BernoulliCut, AgreesWithTheFloatingCompareOnSeededPairs) {
  Rng rng(2029);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t x = rng();
    double p = 0.0;
    switch (i % 3) {
      case 0:
        p = rng.uniform();
        break;
      case 1:
        p = std::ldexp(1.0 + rng.uniform(),
                       -1 - static_cast<int>(rng.uniform_index(64)));
        break;
      default: {
        const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
        const double toward[] = {0.0, u, 1.0};
        p = std::nextafter(u, toward[rng.uniform_index(3)]);
        break;
      }
    }
    const bool want = float_hit(x, p);
    if (cut_hit(x, p) != want || select_hit(x, p) != want) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace leak
