// Tests for the threshold solvers: Eq 6 / Eq 9 closed forms, the Eq 10
// numeric root, the GST safety bound and the Figure 7 frontier.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analytic/solvers.hpp"

namespace leak::analytic {
namespace {

const AnalyticConfig kPaper = AnalyticConfig::paper();

TEST(HonestTime, Eq6ClosedForm) {
  // p0 = 0.6: t = sqrt(2^25 [ln(0.8) - ln(0.6)]) ~ 3107.
  EXPECT_NEAR(time_to_supermajority_honest(0.6, kPaper), 3106.9, 1.0);
}

TEST(HonestTime, CapAtEjectionForEvenSplit) {
  // p0 <= 0.5 can only regain 2/3 via the ejection jump at 4685.
  const double t_eject = ejection_epoch(Behavior::kInactive, kPaper);
  for (double p0 : {0.2, 0.35, 0.5}) {
    EXPECT_DOUBLE_EQ(time_to_supermajority_honest(p0, kPaper), t_eject);
  }
}

TEST(HonestTime, AlreadySupermajority) {
  EXPECT_DOUBLE_EQ(time_to_supermajority_honest(0.7, kPaper), 0.0);
  EXPECT_DOUBLE_EQ(time_to_supermajority_honest(2.0 / 3.0, kPaper), 0.0);
}

TEST(HonestTime, RatioActuallyCrossesAtSolution) {
  const double p0 = 0.55;
  const double t = time_to_supermajority_honest(p0, kPaper);
  EXPECT_LT(active_ratio_honest(t - 5.0, p0, kPaper), 2.0 / 3.0);
  EXPECT_GE(active_ratio_honest(t + 5.0, p0, kPaper), 2.0 / 3.0);
}

TEST(SlashingTime, Table2Values) {
  // Table 2 (p0 = 0.5): the paper's reported epochs.
  EXPECT_NEAR(time_to_supermajority_slashing(0.5, 0.0, kPaper), 4685.0, 1.0);
  EXPECT_NEAR(time_to_supermajority_slashing(0.5, 0.10, kPaper), 4066.0, 1.5);
  EXPECT_NEAR(time_to_supermajority_slashing(0.5, 0.15, kPaper), 3622.0, 1.5);
  EXPECT_NEAR(time_to_supermajority_slashing(0.5, 0.20, kPaper), 3107.0, 1.5);
  EXPECT_NEAR(time_to_supermajority_slashing(0.5, 0.33, kPaper), 502.0, 1.5);
}

TEST(SlashingTime, ApproachesZeroNearOneThird) {
  EXPECT_LT(time_to_supermajority_slashing(0.5, 0.333, kPaper), 200.0);
  EXPECT_DOUBLE_EQ(time_to_supermajority_slashing(0.5, 1.0 / 3.0, kPaper),
                   0.0);
}

TEST(SlashingTime, MonotoneDecreasingInBeta) {
  double prev = 1e9;
  for (double b0 = 0.0; b0 < 0.33; b0 += 0.03) {
    const double t = time_to_supermajority_slashing(0.5, b0, kPaper);
    EXPECT_LE(t, prev);
    prev = t;
  }
}

TEST(SemiActiveTime, Table3KeyValue) {
  // The paper's numeric solution: 555.65 epochs at (0.5, 0.33).
  EXPECT_NEAR(time_to_supermajority_semiactive(0.5, 0.33, kPaper), 555.65,
              1.0);
}

TEST(SemiActiveTime, SlowerThanSlashing) {
  for (double b0 : {0.1, 0.2, 0.33}) {
    EXPECT_GT(time_to_supermajority_semiactive(0.5, b0, kPaper),
              time_to_supermajority_slashing(0.5, b0, kPaper));
  }
}

TEST(SemiActiveTime, RootSolvesEq10) {
  const double b0 = 0.25;
  const double t = time_to_supermajority_semiactive(0.5, b0, kPaper);
  EXPECT_NEAR(active_ratio_semiactive(t, 0.5, b0, kPaper), 2.0 / 3.0, 1e-6);
}

TEST(ConflictingFinalization, HonestBaselineIs4686) {
  // "Finality on both chains is achieved precisely at 4686 epochs."
  const double t = conflicting_finalization_epoch(
      0.5, 0.0, ByzantineStrategy::kNone, kPaper);
  EXPECT_NEAR(t, 4686.0, 1.5);
}

TEST(ConflictingFinalization, SlowerBranchGoverns) {
  // Uneven split: branch with p0 = 0.4 regains 2/3 only at ejection,
  // branch with 0.6 at ~3107; conflict completes with the slower one.
  const double t = conflicting_finalization_epoch(
      0.6, 0.0, ByzantineStrategy::kNone, kPaper);
  const double t_eject = ejection_epoch(Behavior::kInactive, kPaper);
  EXPECT_NEAR(t, t_eject + 1.0, 1e-9);
}

TEST(ConflictingFinalization, ByzantineSpeedup) {
  // beta0 = 0.33 speeds conflicting finalization ~10x (slashable) and
  // ~8x (semi-active) vs the honest baseline (paper Section 5.2).
  const double honest = conflicting_finalization_epoch(
      0.5, 0.0, ByzantineStrategy::kNone, kPaper);
  const double slash = conflicting_finalization_epoch(
      0.5, 0.33, ByzantineStrategy::kSlashable, kPaper);
  const double semi = conflicting_finalization_epoch(
      0.5, 0.33, ByzantineStrategy::kSemiActive, kPaper);
  EXPECT_NEAR(honest / slash, 9.3, 0.5);
  EXPECT_NEAR(honest / semi, 8.4, 0.5);
  EXPECT_GT(slash, 0.0);
  EXPECT_GT(semi, slash);
}

TEST(GstBound, PaperValue) {
  EXPECT_NEAR(gst_safety_upper_bound(kPaper), 4686.0, 1.5);
}

TEST(GstBound, StatedThresholdValue) {
  // With the stated 16.75 threshold the bound shifts to ~4662.
  EXPECT_NEAR(gst_safety_upper_bound(AnalyticConfig::stated()), 4661.6, 1.5);
}

TEST(BetaThird, LowerBoundPaperValue) {
  // Figure 7: (p0, beta0) = (0.5, 0.2421).
  EXPECT_NEAR(beta0_lower_bound(0.5, kPaper), 0.2421, 5e-4);
}

TEST(BetaThird, ExceedsExactlyAtBound) {
  const double b = beta0_lower_bound(0.5, kPaper);
  EXPECT_GE(beta_max(0.5, b + 1e-6, kPaper), 1.0 / 3.0);
  EXPECT_LT(beta_max(0.5, b - 1e-3, kPaper), 1.0 / 3.0);
}

TEST(BetaThird, BoundGrowsWithP0) {
  // More honest actives on the branch -> more Byzantine stake needed.
  EXPECT_LT(beta0_lower_bound(0.3, kPaper), beta0_lower_bound(0.5, kPaper));
  EXPECT_LT(beta0_lower_bound(0.5, kPaper), beta0_lower_bound(0.7, kPaper));
}

TEST(Fig7, FrontierSymmetricAndOptimalAtHalf) {
  const auto pts = fig7_frontier({0.2, 0.35, 0.5, 0.65, 0.8}, kPaper);
  ASSERT_EQ(pts.size(), 5u);
  // Symmetry: both-branch frontier at p0 and 1-p0 agree.
  EXPECT_NEAR(pts[0].beta0_both, pts[4].beta0_both, 1e-12);
  EXPECT_NEAR(pts[1].beta0_both, pts[3].beta0_both, 1e-12);
  // Minimum at p0 = 0.5.
  for (const auto& p : pts) {
    EXPECT_GE(p.beta0_both + 1e-12, pts[2].beta0_both);
  }
  const auto opt = fig7_optimum(kPaper);
  EXPECT_DOUBLE_EQ(opt.p0, 0.5);
  EXPECT_NEAR(opt.beta0_both, 0.2421, 5e-4);
}

TEST(Fig7, BothBranchesRequireTheMax) {
  const auto pts = fig7_frontier({0.3}, kPaper);
  const auto& p = pts[0];
  EXPECT_DOUBLE_EQ(p.beta0_both,
                   std::max(p.beta0_branch1, p.beta0_branch2));
  // At the both-branch frontier, each branch individually exceeds 1/3.
  EXPECT_GE(beta_max(0.3, p.beta0_both + 1e-9, kPaper), 1.0 / 3.0);
  EXPECT_GE(beta_max(0.7, p.beta0_both + 1e-9, kPaper), 1.0 / 3.0);
}

// Parameterized consistency: for every (p0, beta0) pair the semi-active
// solver's root actually sits on the 2/3 level set (or at the ejection
// cap when the ratio never crosses before it).
class SemiActiveSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SemiActiveSweep, RootOnLevelSetOrCap) {
  const auto [p0, b0] = GetParam();
  const double t = time_to_supermajority_semiactive(p0, b0, kPaper);
  const double t_eject = ejection_epoch(Behavior::kInactive, kPaper);
  if (t < t_eject) {
    EXPECT_NEAR(active_ratio_semiactive(t, p0, b0, kPaper), 2.0 / 3.0, 1e-6);
  } else {
    EXPECT_DOUBLE_EQ(t, t_eject);
    EXPECT_LT(active_ratio_semiactive(t - 1.0, p0, b0, kPaper), 2.0 / 3.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SemiActiveSweep,
    ::testing::Values(std::pair{0.5, 0.05}, std::pair{0.5, 0.15},
                      std::pair{0.5, 0.25}, std::pair{0.5, 0.33},
                      std::pair{0.4, 0.2}, std::pair{0.3, 0.33},
                      std::pair{0.6, 0.1}, std::pair{0.2, 0.05}));

}  // namespace
}  // namespace leak::analytic
