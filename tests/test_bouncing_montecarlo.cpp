// Monte Carlo cross-validation of the Section 5.3 closed forms: the
// exact discrete protocol dynamics must agree with the censored
// log-normal law on medians and masses (the paper's Gaussian variance
// is documented to be conservative, so tolerances are on robust
// statistics, not tails).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/bouncing/distribution.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/support/stats.hpp"
#include "tests/oracles/yardsticks.hpp"
#include "tests/path_scale.hpp"
#include "tests/population_run.hpp"

namespace leak::bouncing {
namespace {

McConfig small_config() {
  McConfig cfg;
  cfg.paths = 2000;
  cfg.epochs = 7800;
  cfg.seed = 123;
  return cfg;
}

TEST(BouncingMc, GridValidation) {
  McConfig cfg = small_config();
  EXPECT_THROW(run_bouncing_mc(cfg, {}), std::invalid_argument);
  EXPECT_THROW(run_bouncing_mc(cfg, {100, 50}), std::invalid_argument);
  EXPECT_THROW(run_bouncing_mc(cfg, {100, 100}), std::invalid_argument);
  EXPECT_THROW(run_bouncing_mc(cfg, {90000}), std::invalid_argument);
}

TEST(BouncingMc, DeterministicForSeed) {
  McConfig cfg = small_config();
  cfg.paths = env::scaled_count(200);
  cfg.epochs = 500;
  const auto a = run_bouncing_mc(cfg, {100, 500});
  const auto b = run_bouncing_mc(cfg, {100, 500});
  EXPECT_EQ(a.stakes[1], b.stakes[1]);
}

TEST(BouncingMc, StakesWithinProtocolBounds) {
  McConfig cfg = small_config();
  cfg.paths = env::scaled_count(500);
  cfg.epochs = 4000;
  const auto r = run_bouncing_mc(cfg, {1000, 4000});
  for (const auto& snap : r.stakes) {
    for (double s : snap) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 32.0);
      // Censoring: nothing alive below the ejection threshold.
      if (s > 0.0) {
        EXPECT_GT(s, cfg.model.ejection_threshold);
      }
    }
  }
}

TEST(BouncingMc, EjectedFractionMonotone) {
  McConfig cfg = small_config();
  cfg.paths = env::scaled_count(1000);
  const auto r = run_bouncing_mc(cfg, {2000, 5000, 7000, 7800});
  for (std::size_t k = 1; k < r.ejected_fraction.size(); ++k) {
    EXPECT_GE(r.ejected_fraction[k], r.ejected_fraction[k - 1]);
  }
}

TEST(BouncingMc, MedianTracksSemiActiveDecay) {
  // The empirical median of surviving stakes at t = 4000 matches the
  // law's median (= the semi-active trajectory) within 1%.
  if (env::test_path_scale() < 1.0) {
    GTEST_SKIP() << "1% median tolerance needs the full 3000-path sample";
  }
  McConfig cfg = small_config();
  cfg.paths = 3000;
  cfg.epochs = 4000;
  const auto r = run_bouncing_mc(cfg, {4000});
  std::vector<double> alive;
  for (double s : r.stakes[0]) {
    if (s > 0.0) alive.push_back(s);
  }
  ASSERT_GT(alive.size(), 2500u);
  const double med = leak::quantile(alive, 0.5);
  const double semi =
      analytic::stake(analytic::Behavior::kSemiActive, 4000.0, cfg.model);
  EXPECT_NEAR(med / semi, 1.0, 0.01);
}

TEST(BouncingMc, EjectionWaveNearMedianCrossing) {
  // When the median trajectory reaches the ejection threshold
  // (epoch ~7650 in the paper config) roughly half the paths are gone.
  McConfig cfg = small_config();
  cfg.paths = env::scaled_count(2000);
  const auto r = run_bouncing_mc(cfg, {6000, 7650});
  EXPECT_LT(r.ejected_fraction[0], 0.25);
  EXPECT_GT(r.ejected_fraction[1], 0.25);
  EXPECT_LT(r.ejected_fraction[1], 0.75);
}

TEST(BouncingMc, CappedFractionVanishesLate) {
  McConfig cfg = small_config();
  cfg.paths = env::scaled_count(1000);
  cfg.epochs = 2000;
  const auto r = run_bouncing_mc(cfg, {50, 2000});
  EXPECT_GE(r.capped_fraction[0], 0.0);
  EXPECT_LT(r.capped_fraction[1], 0.01);
}

TEST(BouncingMc, ProbBetaNearHalfAtOneThird) {
  // Eq 24's P = 0.5 for beta0 = 1/3: the empirical exceedance frequency
  // sits near one half (the floored score walk shifts it slightly up).
  McConfig cfg = small_config();
  cfg.beta0 = 1.0 / 3.0;
  cfg.paths = env::scaled_count(3000);
  cfg.epochs = 3000;
  const auto r = run_bouncing_mc(cfg, {3000});
  EXPECT_NEAR(r.prob_beta_exceeds[0], 0.5, 0.12);
}

TEST(BouncingMc, ProbBetaNegligibleFarFromThird) {
  McConfig cfg = small_config();
  cfg.beta0 = 0.25;
  cfg.paths = env::scaled_count(1000);
  cfg.epochs = 3000;
  const auto r = run_bouncing_mc(cfg, {3000});
  EXPECT_LT(r.prob_beta_exceeds[0], 0.01);
}

TEST(BouncingMc, ProbBetaOrderedInBeta0) {
  McConfig cfg = small_config();
  cfg.paths = env::scaled_count(1500);
  cfg.epochs = 5000;
  double prev = 1.0;
  for (double b0 : {1.0 / 3.0, 0.33, 0.3}) {
    cfg.beta0 = b0;
    const auto r = run_bouncing_mc(cfg, {5000});
    EXPECT_LE(r.prob_beta_exceeds[0], prev + 0.02) << b0;
    prev = r.prob_beta_exceeds[0];
  }
}

TEST(BouncingMc, KsDistanceToCensoredLawBounded) {
  // Kolmogorov-Smirnov distance between the empirical stake sample and
  // the closed-form censored law.  The paper's Gaussian carries twice
  // the exact walk variance (see docs/MODEL.md), so the distance is
  // not statistical-noise small — but it stays well bounded, and this
  // test quantifies the documented deviation.
  McConfig cfg = small_config();
  cfg.paths = env::scaled_count(3000);
  cfg.epochs = 6000;
  const auto r = run_bouncing_mc(cfg, {6000});
  const StakeLaw law(cfg.p0, cfg.model);
  const double d = oracle::ks_distance(r.stakes[0], [&](double s) {
    return law.cdf_censored(s, 6000.0);
  });
  EXPECT_LT(d, 0.2);
  EXPECT_GT(d, 0.001);  // and it is measurably nonzero (variance factor)
}

TEST(PopulationRun, BetaStartsAtBeta0AndStaysBounded) {
  PopulationRunConfig cfg;
  cfg.seed = 11;  // pinned: default, explicit for determinism
  cfg.beta0 = 0.33;
  cfg.epochs = 4000;
  cfg.honest_validators = 300;
  const auto r = run_population_bouncing(cfg);
  ASSERT_FALSE(r.beta_trajectory.empty());
  EXPECT_NEAR(r.beta_trajectory.front(), 0.33, 0.01);
  for (double b : r.beta_trajectory) {
    EXPECT_GT(b, 0.28);
    EXPECT_LT(b, 0.40);
  }
}

TEST(PopulationRun, TrajectoryLengthMatchesStride) {
  PopulationRunConfig cfg;
  cfg.seed = 11;  // pinned: default, explicit for determinism
  cfg.epochs = 1600;
  cfg.honest_validators = 50;
  const auto r = run_population_bouncing(cfg);
  EXPECT_EQ(r.beta_trajectory.size(), cfg.epochs / r.stride);
}

TEST(PopulationRun, SmallBetaNeverExceeds) {
  PopulationRunConfig cfg;
  cfg.seed = 11;  // pinned: default, explicit for determinism
  cfg.beta0 = 0.2;
  cfg.epochs = 4000;
  cfg.honest_validators = 100;
  const auto r = run_population_bouncing(cfg);
  EXPECT_EQ(r.first_exceed_epoch, -1);
}

TEST(PopulationRun, ExactThirdHoversAtThreshold) {
  // At beta0 = 1/3 the branch-level proportion oscillates around 1/3;
  // over a long horizon it crosses at least transiently.
  PopulationRunConfig cfg;
  cfg.beta0 = 1.0 / 3.0;
  cfg.epochs = 3000;
  cfg.honest_validators = 30;  // small population -> visible fluctuations
  cfg.seed = 5;
  const auto r = run_population_bouncing(cfg);
  double closest = 1.0;
  for (double b : r.beta_trajectory) {
    closest = std::min(closest, std::abs(b - 1.0 / 3.0));
  }
  EXPECT_LT(closest, 0.01);
}

TEST(PopulationEnsemble, RejectsHorizonBelowBetaStride) {
  // Below one stride no beta sample is ever taken, so the ensemble
  // would report mean_final_beta = 0 instead of failing.
  PopulationEnsembleConfig cfg;
  cfg.base.honest_validators = 10;
  cfg.paths = 2;
  cfg.threads = 1;
  cfg.base.epochs = kBetaStride - 1;
  EXPECT_THROW((void)run_population_ensemble(cfg), std::invalid_argument);
  cfg.base.epochs = kBetaStride;
  EXPECT_GT(run_population_ensemble(cfg).mean_final_beta, 0.0);
}

}  // namespace
}  // namespace leak::bouncing
