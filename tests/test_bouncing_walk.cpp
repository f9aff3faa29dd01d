// Tests for the inactivity-score random walk: the exact DP pmf, its
// moments, and how it departs from the paper's Gaussian (Eq 16).
#include <gtest/gtest.h>

#include <cmath>

#include "src/bouncing/walk.hpp"
#include "src/support/numeric.hpp"

namespace leak::bouncing {
namespace {

TEST(WalkParamsTest, PaperConstants) {
  const auto w = WalkParams::paper(0.5);
  EXPECT_DOUBLE_EQ(w.drift, 1.5);
  EXPECT_DOUBLE_EQ(w.diffusion, 6.25);  // 25 * 0.25
}

// One unfloored step: +4 w.p. 1-p0, -1 w.p. p0.
TEST(StepMomentsTest, HalfAndHalf) {
  const auto m = exact_score_pmf(0.5, 1, /*floor_at_zero=*/false);
  EXPECT_DOUBLE_EQ(m.mean(), 1.5);
  EXPECT_DOUBLE_EQ(m.variance(), 6.25);  // 8.5 - 2.25
}

TEST(StepMomentsTest, ExtremeP0) {
  // Always active: deterministic -1 step.
  const auto act = exact_score_pmf(1.0, 1, false);
  EXPECT_DOUBLE_EQ(act.mean(), -1.0);
  EXPECT_DOUBLE_EQ(act.variance(), 0.0);
  // Always inactive: deterministic +4 step.
  const auto inact = exact_score_pmf(0.0, 1, false);
  EXPECT_DOUBLE_EQ(inact.mean(), 4.0);
  EXPECT_DOUBLE_EQ(inact.variance(), 0.0);
}

TEST(ExactPmf, NormalizesAndSupports) {
  const auto pmf = exact_score_pmf(0.5, 50, /*floor_at_zero=*/true);
  double total = 0.0;
  for (double p : pmf.p) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(pmf.offset, 0);
}

TEST(ExactPmf, UnflooredMeanMatchesDrift) {
  const std::size_t t = 200;
  const auto pmf = exact_score_pmf(0.5, t, /*floor_at_zero=*/false);
  EXPECT_NEAR(pmf.mean(), 1.5 * static_cast<double>(t), 1e-9);
}

TEST(ExactPmf, UnflooredVarianceMatchesStepMoments) {
  const std::size_t t = 200;
  const auto pmf = exact_score_pmf(0.5, t, false);
  // Exact per-epoch variance is 6.25 (half the paper Gaussian's 12.5 t).
  EXPECT_NEAR(pmf.variance(), 6.25 * static_cast<double>(t), 1e-6);
}

TEST(ExactPmf, PaperGaussianOverstatesVarianceByTwo) {
  // Documents the paper's factor-2: its phi has variance 2 D t = 12.5 t
  // while the true walk variance is 6.25 t.
  const std::size_t t = 400;
  const auto pmf = exact_score_pmf(0.5, t, false);
  const auto w = WalkParams::paper(0.5);
  const double paper_var = 2.0 * w.diffusion * static_cast<double>(t);
  EXPECT_NEAR(paper_var / pmf.variance(), 2.0, 1e-6);
}

TEST(ExactPmf, FlooredMeanExceedsUnfloored) {
  // The floor at zero removes negative excursions: mean goes up.
  const auto floored = exact_score_pmf(0.35, 100, true);
  const auto unfloored = exact_score_pmf(0.35, 100, false);
  EXPECT_GT(floored.mean(), unfloored.mean());
}

TEST(ExactPmf, DeterministicCases) {
  // p0 = 1 (always active): score pinned at 0 with floor.
  const auto act = exact_score_pmf(1.0, 30, true);
  EXPECT_NEAR(act.p.at(0), 1.0, 1e-12);
  // p0 = 0 (never active): score = 4t exactly.
  const auto inact = exact_score_pmf(0.0, 30, true);
  EXPECT_NEAR(inact.p.at(120), 1.0, 1e-12);
}

TEST(ExactPmf, GaussianLimitShape) {
  // For large t the unfloored pmf approaches a Gaussian with the exact
  // moments: compare the standardized cdf at a few z-scores.
  const std::size_t t = 2000;
  const auto pmf = exact_score_pmf(0.5, t, false);
  const double mu = pmf.mean();
  const double sd = std::sqrt(pmf.variance());
  for (double z : {-1.0, 0.0, 1.0}) {
    const auto x = static_cast<long long>(std::llround(mu + z * sd));
    // P[score <= x]: p[i] is the probability of score i + offset.
    double cdf = 0.0;
    for (std::size_t i = 0; i < pmf.p.size(); ++i) {
      if (static_cast<long long>(i) + pmf.offset <= x) cdf += pmf.p[i];
    }
    EXPECT_NEAR(cdf, leak::num::normal_cdf(z), 0.01) << z;
  }
}

TEST(ExactPmf, InvalidArgsThrow) {
  EXPECT_THROW(exact_score_pmf(-0.1, 10, true), std::invalid_argument);
  EXPECT_THROW(exact_score_pmf(0.5, 10, true, 0), std::invalid_argument);
}

// Property sweep over p0: floored pmf mass at 0 decreases in (1-p0).
class FloorMass : public ::testing::TestWithParam<double> {};

TEST_P(FloorMass, MassAtZeroDecreasingInInactivity) {
  const double p0 = GetParam();
  const auto more_active = exact_score_pmf(p0, 80, true);
  const auto less_active = exact_score_pmf(p0 - 0.1, 80, true);
  EXPECT_GE(more_active.p.at(0), less_active.p.at(0));
}

INSTANTIATE_TEST_SUITE_P(P0Grid, FloorMass,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace leak::bouncing
