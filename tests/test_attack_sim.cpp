// Tests for the bouncing-attack lifetime simulator: duration
// distribution vs the geometric closed form, and the unconditional
// probability of breaking the 1/3 threshold.
#include <gtest/gtest.h>

#include <cmath>

#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/markov.hpp"
#include "tests/path_scale.hpp"

namespace leak::bouncing {
namespace {

AttackSimConfig small(double beta0, bool stake_weighted = false) {
  AttackSimConfig cfg;
  cfg.beta0 = beta0;
  cfg.runs = leak::env::scaled_count(400);
  cfg.honest_validators = 60;
  cfg.max_epochs = 8000;
  cfg.seed = 77;
  cfg.stake_weighted_lottery = stake_weighted;
  return cfg;
}

TEST(ExpectedDuration, GeometricClosedForm) {
  // p_die = (1-b0)^j; E[duration] = (1-p_die)/p_die.
  const double b0 = 1.0 / 3.0;
  const double p_die = std::pow(2.0 / 3.0, 8);
  EXPECT_NEAR(expected_duration_constant_beta(b0, 8),
              (1.0 - p_die) / p_die, 1e-12);
  // j = 0: the attack can never continue.
  EXPECT_DOUBLE_EQ(expected_duration_constant_beta(0.3, 0), 0.0);
}

TEST(AttackSim, DurationMatchesGeometricForConstantLottery) {
  if (env::test_path_scale() < 1.0) {
    GTEST_SKIP() << "25% tolerance on the mean needs the full 400 runs";
  }
  const auto cfg = small(1.0 / 3.0, /*stake_weighted=*/false);
  const auto r = run_attack_sim(cfg);
  const double expect = expected_duration_constant_beta(cfg.beta0, cfg.j);
  // ~25 epochs expected; 400 runs give ~8% standard error.
  EXPECT_NEAR(r.mean_duration, expect, expect * 0.25);
}

TEST(AttackSim, SmallerBetaDiesFaster) {
  const auto big = run_attack_sim(small(1.0 / 3.0));
  const auto sml = run_attack_sim(small(0.15));
  EXPECT_LT(sml.mean_duration, big.mean_duration);
}

TEST(AttackSim, MoreProposerSlotsExtendAttack) {
  auto a = small(0.25);
  a.j = 2;
  auto b = small(0.25);
  b.j = 16;
  EXPECT_LT(run_attack_sim(a).mean_duration,
            run_attack_sim(b).mean_duration);
}

TEST(AttackSim, ThresholdRarelyBrokenWithinRealisticLifetimes) {
  // The paper's point: breaking 1/3 via bouncing needs thousands of
  // epochs, but the attack dies in tens — the unconditional probability
  // is tiny even for beta0 = 0.33.
  const auto r = run_attack_sim(small(0.33));
  EXPECT_LT(r.prob_threshold_broken, 0.02);
  EXPECT_LT(r.p99_duration, 500.0);
}

TEST(AttackSim, BetaExactlyThirdBreaksQuicklySometimes) {
  // At beta0 = 1/3 the proportion hovers at the threshold; small
  // fluctuations cross it within the attack's lifetime occasionally.
  auto cfg = small(1.0 / 3.0);
  cfg.honest_validators = 20;  // small population -> fluctuations
  cfg.runs = env::scaled_count(600);
  const auto r = run_attack_sim(cfg);
  EXPECT_GT(r.prob_threshold_broken, 0.05);
}

TEST(AttackSim, StakeWeightedLotteryDiffersFromConstant) {
  // As honest validators bleed stake, beta grows and the stake-weighted
  // lottery survives (weakly) longer on average.
  const auto cst = run_attack_sim(small(0.3, false));
  const auto dyn = run_attack_sim(small(0.3, true));
  EXPECT_GE(dyn.mean_duration, cst.mean_duration * 0.8);
}

TEST(AttackSim, Deterministic) {
  const auto a = run_attack_sim(small(0.3));
  const auto b = run_attack_sim(small(0.3));
  EXPECT_EQ(a.durations, b.durations);
}

TEST(AttackSim, StatisticsConsistent) {
  const auto cfg = small(0.3);
  const auto r = run_attack_sim(cfg);
  EXPECT_EQ(r.durations.size(), cfg.runs);
  EXPECT_LE(r.median_duration, r.p99_duration);
  EXPECT_GE(r.mean_duration, 0.0);
  EXPECT_EQ(r.break_epochs.size() <= r.durations.size(), true);
}

TEST(AttackSim, InvalidConfigThrows) {
  AttackSimConfig cfg;
  cfg.runs = 0;
  EXPECT_THROW(run_attack_sim(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace leak::bouncing
