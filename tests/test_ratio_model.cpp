// Tests for the branch active-stake ratios (Eqs 5, 10, 13), the Eq 8 and
// Eq 11 yardsticks (tests/oracles/) they are compared with, and the
// Figure 3 behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analytic/ratio_model.hpp"
#include "tests/oracles/yardsticks.hpp"

namespace leak::analytic {
namespace {

const AnalyticConfig kPaper = AnalyticConfig::paper();

using oracle::active_ratio_slashing;
using oracle::byzantine_proportion;

TEST(HonestRatio, StartsAtP0) {
  for (double p0 : {0.2, 0.4, 0.6}) {
    EXPECT_NEAR(active_ratio_honest(0.0, p0, kPaper), p0, 1e-12);
  }
}

TEST(HonestRatio, MatchesEq5) {
  // Eq 5: p0 / (p0 + (1-p0) e^{-t^2/2^25}).
  const double t = 2000.0, p0 = 0.4;
  const double expect =
      p0 / (p0 + (1.0 - p0) * std::exp(-t * t / std::pow(2.0, 25)));
  EXPECT_NEAR(active_ratio_honest(t, p0, kPaper), expect, 1e-12);
}

TEST(HonestRatio, MonotoneIncreasing) {
  double prev = 0.0;
  for (double t = 0.0; t <= 6000.0; t += 50.0) {
    const double r = active_ratio_honest(t, 0.3, kPaper);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(HonestRatio, JumpsToOneAtEjection) {
  const double t_eject = ejection_epoch(Behavior::kInactive, kPaper);
  EXPECT_LT(active_ratio_honest(t_eject - 1.0, 0.3, kPaper), 1.0);
  EXPECT_DOUBLE_EQ(active_ratio_honest(t_eject + 1.0, 0.3, kPaper), 1.0);
}

TEST(HonestRatio, Fig3CurveShape) {
  // p0 = 0.6 crosses 2/3 well before ejection; p0 = 0.5 and below only
  // cross at the ejection jump (Figure 3 discussion).
  const double t_eject = ejection_epoch(Behavior::kInactive, kPaper);
  bool crossed_before = false;
  for (double t = 0.0; t < t_eject - 5.0; t += 10.0) {
    if (active_ratio_honest(t, 0.6, kPaper) > 2.0 / 3.0) {
      crossed_before = true;
      break;
    }
  }
  EXPECT_TRUE(crossed_before);
  EXPECT_LT(active_ratio_honest(t_eject - 5.0, 0.5, kPaper), 2.0 / 3.0);
}

TEST(HonestRatio, ParamValidation) {
  EXPECT_THROW(static_cast<void>(active_ratio_honest(0.0, -0.1, kPaper)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(active_ratio_honest(0.0, 1.1, kPaper)),
               std::invalid_argument);
}

TEST(SlashingRatio, StartsAboveHonest) {
  // Byzantine active on both branches: the branch starts with
  // p0 (1-b0) + b0 active share.
  const double p0 = 0.5, b0 = 0.2;
  const double r0 = active_ratio_slashing(0.0, p0, b0, kPaper);
  const double expect =
      (p0 * (1 - b0) + b0) / (p0 * (1 - b0) + b0 + (1 - p0) * (1 - b0));
  EXPECT_NEAR(r0, expect, 1e-12);
  EXPECT_GT(r0, active_ratio_honest(0.0, p0, kPaper));
}

TEST(SlashingRatio, MatchesEq8) {
  const double t = 1500.0, p0 = 0.5, b0 = 0.15;
  const double decay = std::exp(-t * t / std::pow(2.0, 25));
  const double expect = (p0 * (1 - b0) + b0) /
                        (p0 * (1 - b0) + b0 + (1 - p0) * (1 - b0) * decay);
  EXPECT_NEAR(active_ratio_slashing(t, p0, b0, kPaper), expect, 1e-12);
}

TEST(SlashingRatio, ReducesToHonestAtZeroBeta) {
  for (double t : {0.0, 1000.0, 3000.0}) {
    EXPECT_NEAR(active_ratio_slashing(t, 0.4, 0.0, kPaper),
                active_ratio_honest(t, 0.4, kPaper), 1e-12);
  }
}

TEST(SemiActiveRatio, MatchesEq10) {
  const double t = 400.0, p0 = 0.5, b0 = 0.33;
  const double semi = std::exp(-3.0 * t * t / std::pow(2.0, 28));
  const double inact = std::exp(-t * t / std::pow(2.0, 25));
  const double act = p0 * (1 - b0) + b0 * semi;
  const double expect = act / (act + (1 - p0) * (1 - b0) * inact);
  EXPECT_NEAR(active_ratio_semiactive(t, p0, b0, kPaper), expect, 1e-12);
}

TEST(SemiActiveRatio, BelowSlashingRatio) {
  // Semi-active Byzantine stake decays, so the branch recovers more
  // slowly than with the always-active (slashable) strategy.
  for (double t : {500.0, 1500.0, 3000.0}) {
    EXPECT_LT(active_ratio_semiactive(t, 0.5, 0.2, kPaper),
              active_ratio_slashing(t, 0.5, 0.2, kPaper));
  }
}

TEST(ByzantineProportion, StartsAtBeta0) {
  for (double b0 : {0.1, 0.25, 0.33}) {
    EXPECT_NEAR(byzantine_proportion(0.0, 0.5, b0, kPaper), b0, 1e-12);
  }
}

TEST(ByzantineProportion, PeaksAtHonestEjection) {
  // Before the honest-inactive ejection the proportion grows as the
  // inactive class drains faster than the semi-active Byzantine class;
  // right after the ejection the denominator loses the inactive mass.
  const double t_eject = ejection_epoch(Behavior::kInactive, kPaper);
  const double before = byzantine_proportion(t_eject - 50.0, 0.5, 0.3, kPaper);
  const double at = byzantine_proportion(t_eject + 1.0, 0.5, 0.3, kPaper);
  EXPECT_GT(at, before);
  // After the Byzantine (semi-active) ejection it collapses to zero.
  const double t_eject_semi = ejection_epoch(Behavior::kSemiActive, kPaper);
  EXPECT_DOUBLE_EQ(
      byzantine_proportion(t_eject_semi + 1.0, 0.5, 0.3, kPaper), 0.0);
}

TEST(BetaMax, MatchesEq13) {
  const double p0 = 0.5, b0 = 0.3;
  const double t_ej = ejection_epoch(Behavior::kInactive, kPaper);
  const double e = std::exp(-3.0 * t_ej * t_ej / std::pow(2.0, 28));
  const double expect = b0 * e / (p0 * (1 - b0) + b0 * e);
  EXPECT_NEAR(beta_max(p0, b0, kPaper), expect, 1e-12);
}

TEST(BetaMax, PaperExampleCrossesThird) {
  // beta0 = 0.2421 at p0 = 0.5 is exactly the Figure 7 lower bound.
  EXPECT_NEAR(beta_max(0.5, 0.2421, kPaper), 1.0 / 3.0, 5e-4);
  EXPECT_LT(beta_max(0.5, 0.20, kPaper), 1.0 / 3.0);
  EXPECT_GT(beta_max(0.5, 0.30, kPaper), 1.0 / 3.0);
}

TEST(BetaMax, MonotoneInBeta0AndP0) {
  EXPECT_LT(beta_max(0.5, 0.1, kPaper), beta_max(0.5, 0.2, kPaper));
  // Larger honest-active share dilutes the Byzantine peak.
  EXPECT_GT(beta_max(0.3, 0.25, kPaper), beta_max(0.6, 0.25, kPaper));
}

// Parameterized property: all ratios stay in [0, 1] over a grid.
class RatioRange : public ::testing::TestWithParam<std::pair<double, double>> {
};

TEST_P(RatioRange, AllRatiosInUnitInterval) {
  const auto [p0, b0] = GetParam();
  for (double t = 0.0; t <= 9000.0; t += 250.0) {
    for (const double r :
         {active_ratio_honest(t, p0, kPaper),
          active_ratio_slashing(t, p0, b0, kPaper),
          active_ratio_semiactive(t, p0, b0, kPaper),
          byzantine_proportion(t, p0, b0, kPaper)}) {
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RatioRange,
    ::testing::Values(std::pair{0.1, 0.05}, std::pair{0.3, 0.15},
                      std::pair{0.5, 0.33}, std::pair{0.7, 0.25},
                      std::pair{0.9, 0.01}, std::pair{0.0, 0.2},
                      std::pair{1.0, 0.2}));

}  // namespace
}  // namespace leak::analytic
