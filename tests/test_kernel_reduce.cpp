// Contract of the keep_* flags of the three Monte Carlo drivers that
// have one: keep_paths / keep_runs = false only drops the per-trial
// rows from the result, and every aggregate stays bit-identical to the
// rows-kept run (and, for the attack simulator, to the scalar oracle).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "tests/oracles/scalar_oracles.hpp"
#include "tests/path_scale.hpp"

namespace leak {
namespace {

// Both flag values run the same fan-out and fold the same per-trial
// slabs in the same trial order, so every aggregate is EXPECT_EQ-exact
// — not approximately equal — at every (block, threads) combination.

constexpr unsigned kThreadGrid[] = {1, 4};
constexpr std::size_t kBlockGrid[] = {1, 16};

TEST(SummaryBitIdentity, BouncingMc) {
  bouncing::McConfig cfg;
  cfg.paths = env::scaled_count(200);
  cfg.epochs = 600;
  cfg.seed = 17;
  const std::vector<std::size_t> snaps{300, 600};
  const auto full = bouncing::run_bouncing_mc(cfg, snaps);
  for (const std::size_t block : kBlockGrid) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      cfg.keep_paths = false;
      const auto summary = bouncing::run_bouncing_mc(cfg, snaps);
      cfg.keep_paths = true;
      EXPECT_TRUE(summary.stakes.empty());
      EXPECT_EQ(summary.ejected_fraction, full.ejected_fraction);
      EXPECT_EQ(summary.capped_fraction, full.capped_fraction);
      EXPECT_EQ(summary.prob_beta_exceeds, full.prob_beta_exceeds);
      ASSERT_EQ(summary.stake_stats.size(), full.stake_stats.size());
      for (std::size_t k = 0; k < full.stake_stats.size(); ++k) {
        EXPECT_EQ(summary.stake_stats[k].mean(), full.stake_stats[k].mean());
        EXPECT_EQ(summary.stake_stats[k].variance(),
                  full.stake_stats[k].variance());
      }
    }
  }
}

TEST(SummaryBitIdentity, AttackSim) {
  bouncing::AttackSimConfig cfg;
  cfg.runs = env::scaled_count(120);
  cfg.honest_validators = 20;
  cfg.max_epochs = 1000;
  cfg.seed = 31;
  const auto full = bouncing::run_attack_sim(cfg);
  ASSERT_FALSE(full.durations.empty());
  for (const std::size_t block : kBlockGrid) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      cfg.keep_runs = false;
      const auto summary = bouncing::run_attack_sim(cfg);
      cfg.keep_runs = true;
      // The guard: the result must not carry the per-run rows.
      EXPECT_TRUE(summary.durations.empty());
      EXPECT_TRUE(summary.break_epochs.empty());
      EXPECT_EQ(summary.prob_threshold_broken, full.prob_threshold_broken);
      EXPECT_EQ(summary.mean_duration, full.mean_duration);
      EXPECT_EQ(summary.median_duration, full.median_duration);
      EXPECT_EQ(summary.p99_duration, full.p99_duration);
    }
  }
}

TEST(SummaryBitIdentity, PopulationEnsemble) {
  bouncing::PopulationEnsembleConfig cfg;
  cfg.base.honest_validators = 25;
  cfg.base.epochs = 250;
  cfg.base.beta0 = 1.0 / 3.0;
  cfg.paths = env::scaled_count(10);
  const auto full = bouncing::run_population_ensemble(cfg);
  ASSERT_FALSE(full.first_exceed_epochs.empty());
  for (const std::size_t block : kBlockGrid) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      cfg.keep_paths = false;
      const auto summary = bouncing::run_population_ensemble(cfg);
      cfg.keep_paths = true;
      EXPECT_TRUE(summary.first_exceed_epochs.empty());
      EXPECT_EQ(summary.exceed_fraction, full.exceed_fraction);
      EXPECT_EQ(summary.mean_final_beta, full.mean_final_beta);
    }
  }
}

// Cross-check against the oracle: with the rows dropped the aggregates
// are still bit-identical to the pre-rollout scalar aggregation, not
// just to the rows-kept batched run.
TEST(SummaryBitIdentity, AttackSummaryMatchesScalarOracle) {
  bouncing::AttackSimConfig cfg;
  cfg.runs = env::scaled_count(80);
  cfg.honest_validators = 15;
  cfg.max_epochs = 800;
  cfg.seed = 3;
  const auto ref = oracle::run_attack_sim_scalar(cfg);
  cfg.keep_runs = false;
  cfg.threads = 4;
  cfg.block = 8;
  const auto summary = bouncing::run_attack_sim(cfg);
  EXPECT_EQ(summary.prob_threshold_broken, ref.prob_threshold_broken);
  EXPECT_EQ(summary.mean_duration, ref.mean_duration);
  EXPECT_EQ(summary.median_duration, ref.median_duration);
  EXPECT_EQ(summary.p99_duration, ref.p99_duration);
}

}  // namespace
}  // namespace leak
