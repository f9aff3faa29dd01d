// Tests for the generalized duty-cycle behaviours and the multi-branch
// rotation attack (extension of Sections 4.3 / 5.2).
#include <gtest/gtest.h>

#include <cmath>

#include "src/analytic/duty_cycle.hpp"
#include "src/analytic/solvers.hpp"

namespace leak::analytic {
namespace {

const AnalyticConfig kPaper = AnalyticConfig::paper();

TEST(DutySlope, RecoverPaperTaxonomy) {
  // k = 1: fully active (slope clamps at 0); k = 2: the paper's
  // semi-active 3/2; k -> large: approaches the inactive slope 4.
  EXPECT_DOUBLE_EQ(duty_cycle_slope(1, kPaper), 0.0);
  EXPECT_DOUBLE_EQ(duty_cycle_slope(2, kPaper),
                   score_slope(Behavior::kSemiActive, kPaper));
  EXPECT_DOUBLE_EQ(duty_cycle_slope(0, kPaper),
                   score_slope(Behavior::kInactive, kPaper));
  EXPECT_NEAR(duty_cycle_slope(1000, kPaper), 4.0, 0.01);
}

TEST(DutySlope, MonotoneInK) {
  double prev = -1.0;
  for (unsigned k = 1; k <= 16; ++k) {
    const double v = duty_cycle_slope(k, kPaper);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(DutyStake, MatchesBehaviorClosedForms) {
  for (double t : {500.0, 2000.0, 5000.0}) {
    EXPECT_NEAR(duty_cycle_stake(2, t, kPaper),
                stake(Behavior::kSemiActive, t, kPaper), 1e-12);
    EXPECT_NEAR(duty_cycle_stake(0, t, kPaper),
                stake(Behavior::kInactive, t, kPaper), 1e-12);
    EXPECT_DOUBLE_EQ(duty_cycle_stake(1, t, kPaper), 32.0);
  }
}

TEST(DutyEjection, OrderedInK) {
  // More activity -> later ejection; k = 1 never ejects.
  EXPECT_TRUE(std::isinf(duty_cycle_ejection_epoch(1, kPaper)));
  double prev = 0.0;
  for (unsigned k = 16; k >= 2; --k) {
    const double t = duty_cycle_ejection_epoch(k, kPaper);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_NEAR(duty_cycle_ejection_epoch(2, kPaper),
              ejection_epoch(Behavior::kSemiActive, kPaper), 1e-9);
}

class DutyDiscreteSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DutyDiscreteSweep, DiscreteTracksClosedForm) {
  const unsigned k = GetParam();
  AnalyticConfig cfg = kPaper;
  cfg.ejection_threshold = 0.0;
  const std::size_t horizon = 4000;
  // Active at the epochs where t % k == k - 1.
  std::vector<std::uint8_t> active(horizon);
  for (std::size_t t = 0; t < horizon; ++t) active[t] = (t % k == k - 1);
  const auto traj = simulate_discrete(active, cfg);
  const double closed =
      duty_cycle_stake(k, static_cast<double>(horizon), cfg);
  EXPECT_NEAR(traj.stake[horizon] / closed, 1.0, 1e-2) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Cycles, DutyDiscreteSweep,
                         ::testing::Values(2, 3, 4, 8));

TEST(MultiBranch, TwoBranchesRecoversPaperResults) {
  // m = 2 must agree with the Section 5.2.2 machinery.
  EXPECT_NEAR(multibranch_supermajority_epoch(2, 0.33, kPaper),
              time_to_supermajority_semiactive(0.5, 0.33, kPaper), 1e-6);
  EXPECT_NEAR(multibranch_beta_max(2, 0.3, kPaper),
              beta_max(0.5, 0.3, kPaper), 1e-12);
  EXPECT_NEAR(multibranch_beta0_lower_bound(2, kPaper), 0.2421, 5e-4);
}

TEST(MultiBranch, MoreBranchesNeedLessByzantineStake) {
  // Spreading honest validators over more branches starves every branch
  // of honest-active stake: the beta0 needed to cross 1/3 drops.
  double prev = 1.0;
  for (unsigned m = 2; m <= 6; ++m) {
    const double b = multibranch_beta0_lower_bound(m, kPaper);
    EXPECT_LT(b, prev) << "m=" << m;
    prev = b;
  }
}

TEST(MultiBranch, BetaMaxConsistentWithBound) {
  for (unsigned m = 2; m <= 5; ++m) {
    const double bound = multibranch_beta0_lower_bound(m, kPaper);
    EXPECT_GT(multibranch_beta_max(m, bound + 1e-4, kPaper), 1.0 / 3.0);
    EXPECT_LT(multibranch_beta_max(m, bound - 1e-3, kPaper), 1.0 / 3.0);
  }
}

TEST(MultiBranch, SupermajorityLaterWithMoreBranches) {
  // With the honest side split m ways, each branch starts from a lower
  // active share: recovery (for fixed beta0) cannot be faster.
  const double t2 = multibranch_supermajority_epoch(2, 0.2, kPaper);
  const double t3 = multibranch_supermajority_epoch(3, 0.2, kPaper);
  EXPECT_GE(t3, t2);
}

TEST(MultiBranch, InvalidBranchCountThrows) {
  EXPECT_THROW(static_cast<void>(multibranch_supermajority_epoch(1, 0.2, kPaper)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(multibranch_beta_max(0, 0.2, kPaper)),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(multibranch_exceed_threshold(1, 0.2, 100.0, kPaper)),
      std::invalid_argument);
}

TEST(MultiBranch, ExceedThresholdTwoBranchesIsLegacyCriterion) {
  // The m = 2 threshold must equal the original run_bouncing_mc
  // exceedance expression bit for bit — the CI baseline diff depends
  // on it.  It is the duty-cycle k = 2 law, which equals the paper's
  // semi-active law to the last bit whenever bias >= decrement: every
  // shipped config, and the doubled bias of bench_ablation_constants.
  AnalyticConfig bias8 = kPaper;
  bias8.score_bias = 8.0;
  for (const AnalyticConfig& cfg : {kPaper, AnalyticConfig::stated(),
                                    AnalyticConfig::mainnet(), bias8}) {
    for (const double beta0 : {0.2, 0.33, 0.4}) {
      const double factor = 2.0 * beta0 / (1.0 - beta0);
      for (const double t : {100.0, 1000.0, 4024.0}) {
        EXPECT_EQ(multibranch_exceed_threshold(2, beta0, t, cfg),
                  factor * stake(Behavior::kSemiActive, t, cfg))
            << "bias=" << cfg.score_bias << " quotient=" << cfg.quotient
            << " ejection=" << cfg.ejection_threshold
            << " beta0=" << beta0 << " t=" << t;
      }
    }
  }
}

TEST(MultiBranch, ExceedThresholdScalesWithBranches) {
  // More branches: a larger splitting factor (m beta / (1 - beta)) but
  // a slower Byzantine duty-cycle decay; early on the factor dominates.
  const double t = 500.0;
  EXPECT_GT(multibranch_exceed_threshold(4, 0.33, t, kPaper),
            multibranch_exceed_threshold(2, 0.33, t, kPaper));
  // Thresholds decay in t (the duty-cycled Byzantine stake shrinks).
  EXPECT_GT(multibranch_exceed_threshold(3, 0.33, 100.0, kPaper),
            multibranch_exceed_threshold(3, 0.33, 4000.0, kPaper));
}

}  // namespace
}  // namespace leak::analytic
