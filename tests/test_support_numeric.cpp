// Unit and property tests for the numerical toolkit, and for the
// bisection and trapezoid yardsticks (tests/oracles/) that check it.
#include <gtest/gtest.h>

#include <cmath>

#include "src/support/numeric.hpp"
#include "tests/oracles/yardsticks.hpp"

namespace leak::num {
namespace {

using oracle::bisect;
using oracle::trapezoid;

TEST(Bisect, FindsSqrtTwo) {
  const auto r = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.root, std::sqrt(2.0), 1e-9);
}

TEST(Bisect, ExactEndpointRoot) {
  const auto r = bisect([](double x) { return x; }, 0.0, 1.0);
  ASSERT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.root, 0.0);
}

TEST(Bisect, UnbracketedFails) {
  const auto r = bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0);
  EXPECT_FALSE(r.converged);
}

TEST(Brent, FindsSqrtTwoFast) {
  const auto r = brent([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.root, std::sqrt(2.0), 1e-10);
  EXPECT_LT(r.iterations, 60);
}

TEST(Brent, TranscendentalRoot) {
  // cos(x) = x has root ~0.7390851332151607.
  const auto r = brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.root, 0.7390851332151607, 1e-9);
}

TEST(Brent, UnbracketedFails) {
  const auto r = brent([](double x) { return 1.0 + x * x; }, -3.0, 3.0);
  EXPECT_FALSE(r.converged);
}

TEST(BracketUpward, FindsBracket) {
  const auto b = bracket_upward([](double x) { return x - 10.0; }, 0.0, 3.0,
                                100.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_LE(b->first, 10.0);
  EXPECT_GE(b->second, 10.0);
}

TEST(BracketUpward, RespectsLimit) {
  const auto b = bracket_upward([](double x) { return x - 10.0; }, 0.0, 3.0,
                                5.0);
  EXPECT_FALSE(b.has_value());
}

TEST(Rk4, ExponentialDecay) {
  // y' = -y, y(0)=1 -> y(1) = e^-1.
  const auto traj = rk4([](double, double y) { return -y; }, 0.0, 1.0, 1.0,
                        100);
  EXPECT_NEAR(traj.back().y, std::exp(-1.0), 1e-8);
  EXPECT_EQ(traj.size(), 101u);
}

TEST(Rk4, TimeDependentRhs) {
  // y' = -t y, y(0)=s0 -> y(t) = s0 e^{-t^2/2}; the leak stake ODE shape.
  const auto traj = rk4([](double t, double y) { return -t * y; }, 0.0, 32.0,
                        2.0, 400);
  EXPECT_NEAR(traj.back().y, 32.0 * std::exp(-2.0), 1e-6);
}

TEST(NormalDist, PdfSymmetry) {
  EXPECT_DOUBLE_EQ(normal_pdf(1.3), normal_pdf(-1.3));
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
}

TEST(NormalDist, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.959963984540054), 0.025, 1e-9);
}

TEST(LogNormal, CdfMatchesClosedForm) {
  // ln s ~ N(0, 1): cdf at s = e is Phi(1).
  EXPECT_NEAR(lognormal_cdf(std::exp(1.0), 0.0, 1.0), normal_cdf(1.0), 1e-12);
  EXPECT_DOUBLE_EQ(lognormal_cdf(0.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(lognormal_cdf(-1.0, 0.0, 1.0), 0.0);
}

TEST(LogNormal, PdfIntegratesToOne) {
  const auto xs = linspace(1e-6, 60.0, 20001);
  std::vector<double> ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ys[i] = lognormal_pdf(xs[i], 1.0, 0.5);
  }
  EXPECT_NEAR(trapezoid(xs, ys), 1.0, 1e-4);
}

TEST(Trapezoid, LinearExact) {
  const std::vector<double> x{0.0, 1.0, 2.0};
  const std::vector<double> y{0.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(trapezoid(x, y), 2.0);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto g = linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
}

// Property sweep: brent and bisect agree on a family of monotone
// functions f(x) = x^k - c.
class RootAgreement : public ::testing::TestWithParam<std::pair<int, double>> {};

TEST_P(RootAgreement, BrentMatchesBisect) {
  const auto [k, c] = GetParam();
  const auto f = [k = k, c = c](double x) { return std::pow(x, k) - c; };
  const auto rb = bisect(f, 0.0, 10.0, 1e-12);
  const auto rr = brent(f, 0.0, 10.0, 1e-12);
  ASSERT_TRUE(rb.converged);
  ASSERT_TRUE(rr.converged);
  EXPECT_NEAR(rb.root, rr.root, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Powers, RootAgreement,
    ::testing::Values(std::pair{1, 2.0}, std::pair{2, 2.0}, std::pair{3, 5.0},
                      std::pair{4, 7.0}, std::pair{5, 100.0},
                      std::pair{2, 0.5}, std::pair{3, 900.0}));

}  // namespace
}  // namespace leak::num
