// Tests for the censored log-normal stake law (Eqs 18-22) and the
// probability of exceeding the 1/3 threshold (Eq 24, Figure 10).
#include <gtest/gtest.h>

#include <cmath>

#include "src/bouncing/distribution.hpp"
#include "src/support/numeric.hpp"
#include "tests/oracles/yardsticks.hpp"

namespace leak::bouncing {
namespace {

const analytic::AnalyticConfig kPaper = analytic::AnalyticConfig::paper();

class LawFixture : public ::testing::Test {
 protected:
  LawFixture() : law(0.5, kPaper) {}
  StakeLaw law;
};

TEST_F(LawFixture, ErfFormMatchesEq19) {
  // F(s,t) = 1/2 + 1/2 erf((2^26 ln(s/32) + V t^2/2) / sqrt(4/3 D t^3)).
  const double t = 4024.0, s = 20.0;
  const double q = kPaper.quotient;
  const double d = 6.25, v = 1.5;
  const double arg = (q * std::log(s / 32.0) + v * t * t / 2.0) /
                     std::sqrt(4.0 / 3.0 * d * t * t * t);
  const double expect = 0.5 + 0.5 * std::erf(arg);
  EXPECT_NEAR(law.cdf_uncensored(s, t), expect, 1e-12);
}

TEST_F(LawFixture, PdfIsDerivativeOfCdf) {
  // Probe within +-1 sigma of the median, where the cdf has usable
  // curvature for a finite-difference check.
  const double t = 4024.0;
  const double median = std::exp(law.mu_ln(t));
  const double sigma_s = median * law.sigma_ln(t);
  for (double s : {median - sigma_s, median, median + sigma_s}) {
    const double h = sigma_s * 1e-3;
    const double numeric =
        (law.cdf_uncensored(s + h, t) - law.cdf_uncensored(s - h, t)) /
        (2.0 * h);
    EXPECT_NEAR(law.pdf_uncensored(s, t) / numeric, 1.0, 1e-4) << s;
  }
}

TEST_F(LawFixture, CdfMonotoneInS) {
  const double t = 3500.0;
  double prev = -1.0;
  for (double s = 0.0; s <= 40.0; s += 0.5) {
    const double c = law.cdf_censored(s, t);
    EXPECT_GE(c, prev - 1e-15);
    prev = c;
  }
}

TEST_F(LawFixture, CensoredMassesSumToOne) {
  const double t = 4024.0;
  // Point masses plus interior density integrate to 1.
  const auto xs = leak::num::linspace(kPaper.ejection_threshold + 1e-9,
                                      kPaper.initial_stake - 1e-9, 20001);
  std::vector<double> ys(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ys[i] = law.pdf_censored(xs[i], t);
  }
  const double interior = oracle::trapezoid(xs, ys);
  const double total =
      law.mass_ejected(t) + interior + law.mass_capped(t);
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST_F(LawFixture, CensoredCdfEndpoints) {
  const double t = 4024.0;
  EXPECT_DOUBLE_EQ(law.cdf_censored(-1.0, t), 0.0);
  EXPECT_NEAR(law.cdf_censored(0.0, t), law.mass_ejected(t), 1e-12);
  EXPECT_NEAR(law.cdf_censored(32.0, t), 1.0, 1e-12);
  EXPECT_NEAR(law.cdf_censored(100.0, t), 1.0, 1e-12);
}

TEST_F(LawFixture, PdfZeroOutsideInterior) {
  const double t = 2000.0;
  EXPECT_DOUBLE_EQ(law.pdf_censored(kPaper.ejection_threshold - 0.1, t),
                   0.0);
  EXPECT_DOUBLE_EQ(law.pdf_censored(kPaper.initial_stake + 0.1, t), 0.0);
}

TEST_F(LawFixture, MedianFollowsSemiActiveDecay) {
  // mu_ln equals ln of the semi-active stake: the law's median tracks
  // s0 e^{-V t^2 / (2 q)} = the semi-active trajectory with V = 3/2.
  for (double t : {1000.0, 3000.0, 5000.0}) {
    const double median = std::exp(law.mu_ln(t));
    const double semi =
        analytic::stake(analytic::Behavior::kSemiActive, t, kPaper);
    EXPECT_NEAR(median / semi, 1.0, 1e-12) << t;
  }
}

TEST(Eq24, HalfAtOneThird) {
  // beta0 = 1/3 -> threshold = sB(t) = the law's median -> P = 0.5
  // (Figure 10's flat curve), for any t where the median is interior.
  StakeLaw law(0.5, kPaper);
  for (double t : {1000.0, 2500.0, 4000.0}) {
    EXPECT_NEAR(prob_beta_exceeds_third(t, 1.0 / 3.0, law, kPaper), 0.5,
                1e-9)
        << t;
  }
}

TEST(Eq24, IncreasingInTimeForNearThird) {
  StakeLaw law(0.5, kPaper);
  const double b0 = 0.33;
  double prev = 0.0;
  for (double t = 500.0; t <= 7000.0; t += 500.0) {
    const double p = prob_beta_exceeds_third(t, b0, law, kPaper);
    EXPECT_GE(p, prev - 1e-9) << t;
    prev = p;
  }
}

TEST(Eq24, OrderedInBeta0) {
  // Figure 10: curves for larger beta0 dominate.
  StakeLaw law(0.5, kPaper);
  const double t = 4000.0;
  double prev = 1.0;
  for (double b0 : {1.0 / 3.0, 0.3333, 0.333, 0.33, 0.329, 0.3}) {
    const double p = prob_beta_exceeds_third(t, b0, law, kPaper);
    EXPECT_LE(p, prev + 1e-12) << b0;
    prev = p;
  }
}

TEST(Eq24, FarFromThirdStaysNegligible) {
  StakeLaw law(0.5, kPaper);
  EXPECT_LT(prob_beta_exceeds_third(3000.0, 0.3, law, kPaper), 1e-3);
}

TEST(Eq24, RisesSharplyBeforeByzantineEjection) {
  // "The probability rises abruptly right before the expulsion of
  // Byzantine validators" — compare epochs 6000 and 7600 for b0=0.329.
  StakeLaw law(0.5, kPaper);
  const double early = prob_beta_exceeds_third(6000.0, 0.329, law, kPaper);
  const double late = prob_beta_exceeds_third(7600.0, 0.329, law, kPaper);
  EXPECT_GT(late, early * 1.5);
}

TEST(Eq24, ZeroAfterByzantineEjection) {
  StakeLaw law(0.5, kPaper);
  const double t_eject =
      analytic::ejection_epoch(analytic::Behavior::kSemiActive, kPaper);
  EXPECT_DOUBLE_EQ(
      prob_beta_exceeds_third(t_eject + 1.0, 0.33, law, kPaper), 0.0);
}

TEST(Eq24, EitherBranchDoubles) {
  StakeLaw law(0.5, kPaper);
  const double one = prob_beta_exceeds_third(5000.0, 0.33, law, kPaper);
  const double both =
      prob_beta_exceeds_third_either_branch(5000.0, 0.33, law, kPaper);
  EXPECT_NEAR(both, std::min(1.0, 2.0 * one), 1e-12);
}

// Parameterized: p0 only perturbs the variance, not the median (the
// paper notes p0 "does not have much impact on the curve").
class P0Sensitivity : public ::testing::TestWithParam<double> {};

TEST_P(P0Sensitivity, MedianIndependentOfP0) {
  StakeLaw law(GetParam(), kPaper);
  StakeLaw ref(0.5, kPaper);
  EXPECT_NEAR(law.mu_ln(3000.0), ref.mu_ln(3000.0), 1e-12);
  EXPECT_NE(law.sigma_ln(3000.0), ref.sigma_ln(3000.0));
}

INSTANTIATE_TEST_SUITE_P(Grid, P0Sensitivity,
                         ::testing::Values(0.3, 0.4, 0.6, 0.7));

}  // namespace
}  // namespace leak::bouncing
