// Tests for the bouncing attack feasibility conditions (Eq 14), the
// continuation probability and the Eq 15 two-epoch increment law.
#include <gtest/gtest.h>

#include <cmath>

#include "src/bouncing/markov.hpp"

namespace leak::bouncing {
namespace {

TEST(Feasibility, IntervalMatchesEq14) {
  const auto iv = feasible_p0_interval(0.2);
  ASSERT_TRUE(iv.has_value());
  EXPECT_NEAR(iv->first, (2.0 - 0.6) / (3.0 * 0.8), 1e-12);
  EXPECT_NEAR(iv->second, 2.0 / (3.0 * 0.8), 1e-12);
}

TEST(Feasibility, SmallBetaForcesP0NearTwoThirds) {
  // "the closer beta0 is to 0, the closer p0 has to be to 2/3".
  const auto iv = feasible_p0_interval(0.01);
  ASSERT_TRUE(iv.has_value());
  EXPECT_NEAR(iv->first, 2.0 / 3.0, 0.02);
  EXPECT_NEAR(iv->second, 2.0 / 3.0, 0.02);
}

TEST(Feasibility, InteriorPointSatisfiesBothConditions) {
  for (double b0 : {0.1, 0.2, 0.33}) {
    const auto iv = feasible_p0_interval(b0);
    ASSERT_TRUE(iv.has_value());
    const double mid = 0.5 * (iv->first + iv->second);
    EXPECT_TRUE(attack_feasible(mid, b0));
    EXPECT_FALSE(attack_feasible(iv->first - 0.01, b0));
    EXPECT_FALSE(attack_feasible(iv->second + 0.01, b0));
  }
}

TEST(Feasibility, BadBetaThrows) {
  EXPECT_THROW(feasible_p0_interval(-0.1), std::invalid_argument);
  EXPECT_THROW(feasible_p0_interval(1.0), std::invalid_argument);
}

TEST(Continuation, PaperUpperBoundValue) {
  // (1 - (1-b0)^8)^7000 = 1.01e-121 for b0 = 1/3 (Section 5.3).
  const double p = continuation_probability(1.0 / 3.0, 8, 7000);
  EXPECT_NEAR(std::log10(p), -121.0, 0.5);
}

TEST(Continuation, OneEpochOneSlot) {
  EXPECT_NEAR(continuation_probability(0.25, 1, 1), 0.25, 1e-12);
}

TEST(Continuation, MoreSlotsHelpAttacker) {
  EXPECT_LT(continuation_probability(0.2, 2, 100),
            continuation_probability(0.2, 8, 100));
}

TEST(Continuation, ZeroSlotsKillsAttack) {
  EXPECT_DOUBLE_EQ(continuation_probability(0.3, 0, 5), 0.0);
  EXPECT_THROW(continuation_probability(0.3, -1, 5), std::invalid_argument);
}

TEST(TwoEpoch, MatchesEq15) {
  const auto inc = two_epoch_increment(0.3);
  EXPECT_NEAR(inc.p_plus8, 0.21, 1e-12);
  EXPECT_NEAR(inc.p_plus3, 0.09 + 0.49, 1e-12);
  EXPECT_NEAR(inc.p_minus2, 0.21, 1e-12);
  EXPECT_NEAR(inc.p_plus8 + inc.p_plus3 + inc.p_minus2, 1.0, 1e-12);
}

TEST(TwoEpoch, MeanIsThreeForAnyP0) {
  // E[increment over 2 epochs] = 3 regardless of p0 (hence V = 3/2).
  for (double p0 : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto inc = two_epoch_increment(p0);
    const double mean =
        8.0 * inc.p_plus8 + 3.0 * inc.p_plus3 - 2.0 * inc.p_minus2;
    EXPECT_NEAR(mean, 3.0, 1e-12) << p0;
  }
}

TEST(TwoEpoch, VarianceIs50P0Q) {
  for (double p0 : {0.2, 0.5, 0.8}) {
    const auto inc = two_epoch_increment(p0);
    const double m = 3.0;
    const double var = 64.0 * inc.p_plus8 + 9.0 * inc.p_plus3 +
                       4.0 * inc.p_minus2 - m * m;
    EXPECT_NEAR(var, 50.0 * p0 * (1.0 - p0), 1e-9) << p0;
  }
}

}  // namespace
}  // namespace leak::bouncing
