// Tests for the k-branch partition generalization: heal schedules at
// staggered GSTs, the post-leak recovery tail vs analytic::recovery,
// the degenerate two-branch reduction, and thread-count invariance of
// the randomized-split trials.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analytic/config.hpp"
#include "src/analytic/recovery.hpp"
#include "src/faults/driver.hpp"
#include "src/sim/partition_sim.hpp"
#include "tests/path_scale.hpp"

namespace leak::sim {
namespace {

PartitionSimConfig healing_config(std::uint32_t branches,
                                  std::size_t heal_epoch,
                                  std::size_t stagger) {
  PartitionSimConfig cfg;
  cfg.n_validators = 300;
  cfg.beta0 = 0.0;
  cfg.strategy = Strategy::kNone;
  faults::compile_partition(
      faults::FaultSchedule::staggered_partition(branches, 0, heal_epoch,
                                                 stagger),
      &cfg);
  cfg.max_epochs = 9000;
  return cfg;
}

TEST(MultiPartitionHeal, ScheduleHealsEveryBranchInOrder) {
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const auto r = run_partition_sim(healing_config(k, 1500, 400));
    ASSERT_EQ(r.branch.size(), k);
    EXPECT_LT(r.branch[0].healed_epoch, 0);  // canonical branch never heals
    for (std::uint32_t b = 1; b < k; ++b) {
      EXPECT_EQ(r.branch[b].healed_epoch,
                static_cast<std::int64_t>(1500 + (b - 1) * 400))
          << "k=" << k << " b=" << b;
    }
    EXPECT_EQ(r.heal_complete_epoch,
              static_cast<std::int64_t>(1500 + (k - 2) * 400));
    // Finality resumes and the recovery completes within the horizon.
    ASSERT_GT(r.branch[0].finalization_epoch, 0) << "k=" << k;
    ASSERT_GT(r.recovery_complete_epoch, r.branch[0].finalization_epoch)
        << "k=" << k;
    EXPECT_GT(r.residual_loss_total_eth, 0.0);
  }
}

TEST(MultiPartitionHeal, StaggerZeroHealsSimultaneously) {
  const auto r = run_partition_sim(healing_config(4, 2000, 0));
  for (std::uint32_t b = 1; b < 4; ++b) {
    EXPECT_EQ(r.branch[b].healed_epoch, 2000);
  }
  EXPECT_EQ(r.heal_complete_epoch, 2000);
}

TEST(MultiPartitionHeal, RecoveryTailMatchesAnalyticRecovery) {
  // Homogeneous classes: the sim's integer-arithmetic recovery tail
  // must match the exact discrete recurrence closely and the closed
  // form within its discretization error.
  const auto acfg = analytic::AnalyticConfig::paper();
  for (const std::uint32_t k : {2u, 3u, 4u}) {
    const auto r = run_partition_sim(healing_config(k, 1500, 400));
    ASSERT_EQ(r.recovery.size(), static_cast<std::size_t>(k - 1));
    for (const auto& rec : r.recovery) {
      ASSERT_GE(rec.return_epoch, 0) << "k=" << k << " b=" << rec.from_branch;
      ASSERT_GT(rec.score_at_return, 0.0);
      const double discrete = analytic::residual_loss_discrete(
          rec.score_at_return, rec.stake_at_return_eth, acfg);
      const double closed = analytic::residual_loss(
          rec.score_at_return, rec.stake_at_return_eth, acfg);
      // Integer Gwei vs double recurrence: sub-0.1% of the stake.
      EXPECT_NEAR(rec.residual_loss_eth, discrete,
                  1e-3 * rec.stake_at_return_eth)
          << "k=" << k << " b=" << rec.from_branch;
      EXPECT_NEAR(rec.residual_loss_eth, closed, 0.01 * (closed + 0.01))
          << "k=" << k << " b=" << rec.from_branch;
      EXPECT_NEAR(static_cast<double>(rec.recovery_epochs),
                  analytic::recovery_epochs(rec.score_at_return), 3.0);
    }
  }
}

TEST(MultiPartitionHeal, LaterHealsLoseMoreStake) {
  // Among classes that return at the same epoch (both healed before the
  // leak ended), the one that sat out longer carries the higher score
  // and pays the larger recovery tail.  A class healing only after the
  // leak ended instead drains its score out-of-leak (at bias minus the
  // recovery rate) and returns cheaper.
  const auto r = run_partition_sim(healing_config(4, 1500, 600));
  ASSERT_EQ(r.recovery.size(), 3u);
  const auto& early = r.recovery[0];  // healed mid-leak
  const auto& late = r.recovery[1];   // healed at the leak's end
  ASSERT_GE(early.return_epoch, 0);
  ASSERT_EQ(early.return_epoch, late.return_epoch);
  EXPECT_GT(late.score_at_return, early.score_at_return);
  EXPECT_GT(late.residual_loss_eth, early.residual_loss_eth);
  // The post-leak healer returned with a partially drained score.
  const auto& post = r.recovery[2];
  ASSERT_GE(post.return_epoch, 0);
  EXPECT_GT(post.return_epoch, late.return_epoch);
  EXPECT_LT(post.score_at_return, early.score_at_return);
}

TEST(MultiPartitionHeal, HealAfterEjectionMarksClassEjected) {
  // Healing after the inactive class was ejected on the canonical
  // branch: nothing returns, and the run must not crash or report a
  // recovery for the dead class.
  auto cfg = healing_config(2, 5500, 0);
  cfg.max_epochs = 7000;
  const auto r = run_partition_sim(cfg);
  ASSERT_EQ(r.recovery.size(), 1u);
  EXPECT_TRUE(r.recovery[0].ejected_before_return);
  EXPECT_LT(r.recovery[0].return_epoch, 0);
}

TEST(MultiPartitionHeal, NoHealIsLegacyTwoBranchBehaviour) {
  // branches = 2, heal disabled must reproduce the legacy two-branch
  // simulator exactly (Scenario 5.1 values from test_partition_sim).
  PartitionSimConfig cfg;
  cfg.n_validators = 1000;
  cfg.strategy = Strategy::kNone;
  cfg.max_epochs = 6000;
  const auto r = run_partition_sim(cfg);
  ASSERT_EQ(r.branch.size(), 2u);
  EXPECT_EQ(r.branch[0].supermajority_epoch, r.branch[1].supermajority_epoch);
  EXPECT_GT(r.conflicting_finalization_epoch, 4600);
  EXPECT_EQ(r.recovery_complete_epoch, -1);
  EXPECT_EQ(r.heal_complete_epoch, -1);
  EXPECT_TRUE(r.recovery.empty());
  EXPECT_EQ(r.residual_loss_total_eth, 0.0);
}

TEST(MultiPartitionHeal, KBranchEvenSplitCounts) {
  const auto r = run_partition_sim(healing_config(3, 0, 0));
  ASSERT_EQ(r.n_honest_per_branch.size(), 3u);
  EXPECT_EQ(r.n_honest_per_branch[0] + r.n_honest_per_branch[1] +
                r.n_honest_per_branch[2],
            300u);
  for (const auto c : r.n_honest_per_branch) EXPECT_EQ(c, 100u);
}

TEST(MultiPartitionTrials, ThreadCountInvariance) {
  PartitionTrialsConfig cfg;
  cfg.base = healing_config(3, 1200, 300);
  cfg.base.n_validators = 150;
  cfg.base.max_epochs = 4000;
  cfg.base.trajectory_stride = cfg.base.max_epochs;
  cfg.trials = env::scaled_count(8);
  cfg.seed = 77;

  cfg.threads = 1;
  const auto a = run_partition_trials(cfg);
  cfg.threads = 4;
  cfg.block = 2;
  const auto b = run_partition_trials(cfg);

  EXPECT_EQ(a.conflict_epochs, b.conflict_epochs);
  EXPECT_EQ(a.beta_peaks, b.beta_peaks);
  EXPECT_EQ(a.residual_losses_eth, b.residual_losses_eth);
  EXPECT_EQ(a.recovery_epochs, b.recovery_epochs);
  EXPECT_EQ(a.mean_residual_loss_eth, b.mean_residual_loss_eth);
  EXPECT_EQ(a.recovered_fraction, b.recovered_fraction);
}

TEST(MultiPartitionTrials, UniformAssignmentCoversAllBranches) {
  PartitionTrialsConfig cfg;
  cfg.base = healing_config(4, 0, 0);
  cfg.base.n_validators = 200;
  cfg.base.max_epochs = 50;  // assignment is what matters here
  cfg.base.trajectory_stride = cfg.base.max_epochs;
  cfg.trials = 2;
  cfg.seed = 5;
  const auto r = run_partition_trials(cfg);
  EXPECT_EQ(r.trials, 2u);
  // No conflicting finalization in 50 epochs.
  for (const auto e : r.conflict_epochs) EXPECT_EQ(e, -1);
}

TEST(MultiPartitionTrials, RejectsBadBranchCount) {
  PartitionTrialsConfig cfg;
  cfg.base.branches = 1;
  EXPECT_THROW(run_partition_trials(cfg), std::invalid_argument);
  PartitionSimConfig s;
  s.branches = 1;
  EXPECT_THROW(run_partition_sim(s), std::invalid_argument);
}

}  // namespace
}  // namespace leak::sim
