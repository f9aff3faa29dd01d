// Tests for the epoch-granular partition simulator against the paper's
// scenario outcomes and the closed-form models (protocol arithmetic vs
// continuous analysis).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "src/analytic/solvers.hpp"
#include "src/faults/driver.hpp"
#include "src/sim/partition_sim.hpp"
#include "src/support/random.hpp"
#include "tests/oracles/scalar_oracles.hpp"
#include "tests/path_scale.hpp"

namespace leak::sim {
namespace {

// The protocol-side simulator uses the stated 16.75 ETH threshold; the
// matching analytic reference is AnalyticConfig::stated().
const analytic::AnalyticConfig kStated = analytic::AnalyticConfig::stated();

/// Heal the two-branch split at `heal_epoch` via the fault driver.
void heal_two_branches(PartitionSimConfig* cfg, std::size_t heal_epoch) {
  faults::compile_partition(
      faults::FaultSchedule::staggered_partition(2, 0, heal_epoch, 0), cfg);
}

PartitionSimConfig base(Strategy s, double beta0, double p0 = 0.5) {
  PartitionSimConfig cfg;
  // 1000 validators make every test proportion exact (e.g. beta0 = 0.33
  // -> 330 Byzantine, 335/335 honest split); near beta0 = 1/3 the
  // finalization time is extremely sensitive to rounding of the split.
  cfg.n_validators = 1000;
  cfg.beta0 = beta0;
  cfg.p0 = p0;
  cfg.strategy = s;
  cfg.max_epochs = 6000;
  return cfg;
}

TEST(Scenario51, HonestOnlyConflictingFinalizationAtEjection) {
  const auto r = run_partition_sim(base(Strategy::kNone, 0.0));
  // Both branches regain 2/3 only through the ejection of the inactive
  // class; the sim's integer arithmetic lands within epochs of the
  // closed form (4661 for the 16.75 threshold), +1 to finalize.
  const double expect =
      analytic::ejection_epoch(analytic::Behavior::kInactive, kStated);
  ASSERT_GT(r.conflicting_finalization_epoch, 0);
  EXPECT_NEAR(static_cast<double>(r.conflicting_finalization_epoch),
              expect + 1.0, 12.0);
  EXPECT_EQ(r.branch[0].supermajority_epoch, r.branch[1].supermajority_epoch);
}

TEST(Scenario51, UnevenSplitFinalizesFasterOnBiggerBranch) {
  const auto r = run_partition_sim(base(Strategy::kNone, 0.0, 0.6));
  // Branch 1 (p0 = 0.6) crosses at ~3107; branch 2 (0.4) only at the
  // ejection wave.
  EXPECT_NEAR(static_cast<double>(r.branch[0].supermajority_epoch), 3107.0,
              15.0);
  EXPECT_GT(r.branch[1].supermajority_epoch, 4500);
  EXPECT_EQ(r.conflicting_finalization_epoch,
            r.branch[1].finalization_epoch);
}

TEST(Scenario521, SlashableByzantineSpeedsConflict) {
  const auto r = run_partition_sim(base(Strategy::kSlashable, 0.2));
  const double expect =
      analytic::time_to_supermajority_slashing(0.5, 0.2, kStated);
  ASSERT_GT(r.conflicting_finalization_epoch, 0);
  EXPECT_NEAR(static_cast<double>(r.branch[0].supermajority_epoch), expect,
              expect * 0.01);
  // Much faster than honest-only.
  const auto honest = run_partition_sim(base(Strategy::kNone, 0.0));
  EXPECT_LT(r.conflicting_finalization_epoch,
            honest.conflicting_finalization_epoch);
}

TEST(Scenario521, Beta033TenTimesFaster) {
  const auto r = run_partition_sim(base(Strategy::kSlashable, 0.33));
  ASSERT_GT(r.conflicting_finalization_epoch, 0);
  // Paper Table 2: ~502 epochs (sim arithmetic lands within ~2%).
  EXPECT_NEAR(static_cast<double>(r.conflicting_finalization_epoch), 503.0,
              15.0);
}

TEST(Scenario522, SemiActiveSlowerThanSlashableButFast) {
  const auto slash = run_partition_sim(base(Strategy::kSlashable, 0.33));
  const auto semi =
      run_partition_sim(base(Strategy::kSemiActiveFinalize, 0.33));
  ASSERT_GT(semi.conflicting_finalization_epoch, 0);
  EXPECT_GT(semi.conflicting_finalization_epoch,
            slash.conflicting_finalization_epoch);
  // Paper Table 3: ~556 epochs.
  EXPECT_NEAR(static_cast<double>(semi.conflicting_finalization_epoch),
              557.0, 20.0);
}

TEST(Scenario522, SymmetricBranchesFinalizeTogether) {
  const auto r = run_partition_sim(base(Strategy::kSemiActiveFinalize, 0.2));
  // p0 = 0.5: the two branch outcomes are mirror images.
  EXPECT_NEAR(static_cast<double>(r.branch[0].supermajority_epoch),
              static_cast<double>(r.branch[1].supermajority_epoch), 2.0);
}

TEST(Scenario523, OverthrowExceedsThirdOnBothBranches) {
  auto cfg = base(Strategy::kSemiActiveOverthrow, 0.3);
  cfg.max_epochs = 5200;  // past the honest ejection wave
  const auto r = run_partition_sim(cfg);
  // beta0 = 0.3 > 0.2421: the Byzantine proportion must exceed 1/3 on
  // both branches (Figure 7), peaking at the honest ejection.
  EXPECT_TRUE(r.beta_exceeded_third_both);
  EXPECT_GT(r.branch[0].beta_peak, 1.0 / 3.0);
  EXPECT_GT(r.branch[1].beta_peak, 1.0 / 3.0);
  // And no finalization was performed (they withhold it).
  EXPECT_EQ(r.branch[0].finalization_epoch, -1);
  // Peak occurs at/after the honest-inactive ejection.
  ASSERT_GT(r.branch[0].honest_ejection_epoch, 0);
  EXPECT_GE(r.branch[0].beta_peak_epoch, r.branch[0].honest_ejection_epoch);
}

TEST(Scenario523, BelowBoundStaysUnderThird) {
  auto cfg = base(Strategy::kSemiActiveOverthrow, 0.20);
  cfg.max_epochs = 5200;
  const auto r = run_partition_sim(cfg);
  // beta0 = 0.20 < 0.2421: never exceeds 1/3 on either branch.
  EXPECT_FALSE(r.beta_exceeded_third_both);
  EXPECT_LT(r.branch[0].beta_peak, 1.0 / 3.0);
}

TEST(Scenario523, BoundaryMatchesFig7Bound) {
  // Bracket the Figure 7 bound (0.2421 for the calibrated threshold;
  // slightly different for 16.75 — compute it from the stated config).
  const double bound = analytic::beta0_lower_bound(0.5, kStated);
  for (const double delta : {-0.02, 0.02}) {
    auto cfg = base(Strategy::kSemiActiveOverthrow, bound + delta);
    cfg.max_epochs = 5200;
    cfg.n_validators = 1000;
    const auto r = run_partition_sim(cfg);
    EXPECT_EQ(r.beta_exceeded_third_both, delta > 0)
        << "beta0=" << bound + delta;
  }
}

TEST(Mechanics, BranchViewsDivergeIndependently) {
  const auto r = run_partition_sim(base(Strategy::kNone, 0.0, 0.55));
  // Branch 1 (p0 = 0.55 active) regains 2/3 before the ejection wave and
  // finalizes with no honest ejection; branch 2 (0.45) only recovers by
  // ejecting the inactive class -- the two views diverge.
  EXPECT_EQ(r.branch[0].honest_ejection_epoch, -1);
  ASSERT_GT(r.branch[1].honest_ejection_epoch, 0);
  EXPECT_GT(r.branch[1].supermajority_epoch,
            r.branch[0].supermajority_epoch);
}

TEST(Mechanics, RatioTrajectoryMonotoneUntilFinalization) {
  const auto r = run_partition_sim(base(Strategy::kNone, 0.0));
  const auto& traj = r.branch[0].ratio_trajectory;
  ASSERT_GT(traj.size(), 10u);
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_GE(traj[i], traj[i - 1] - 1e-9);
  }
}

TEST(Mechanics, CountsFollowProportions) {
  auto cfg = base(Strategy::kSlashable, 0.25, 0.4);
  cfg.n_validators = 200;
  cfg.max_epochs = 10;
  const auto r = run_partition_sim(cfg);
  EXPECT_EQ(r.n_byzantine, 50u);
  EXPECT_EQ(r.n_honest_per_branch[0], 60u);
  EXPECT_EQ(r.n_honest_per_branch[1], 90u);
}

TEST(Mechanics, InvalidConfigThrows) {
  PartitionSimConfig cfg;
  cfg.n_validators = 0;
  EXPECT_THROW(run_partition_sim(cfg), std::invalid_argument);
  cfg.n_validators = 10;
  cfg.beta0 = 1.5;
  EXPECT_THROW(run_partition_sim(cfg), std::invalid_argument);
}

TEST(Mechanics, BetaTrajectoryPeaksThenRecorded) {
  auto cfg = base(Strategy::kSemiActiveOverthrow, 0.33);
  cfg.max_epochs = 5000;
  const auto r = run_partition_sim(cfg);
  double max_seen = 0.0;
  for (double b : r.branch[0].beta_trajectory) max_seen = std::max(max_seen, b);
  EXPECT_NEAR(r.branch[0].beta_peak, max_seen, 0.02);
  EXPECT_GE(r.branch[0].beta_peak + 1e-12, max_seen);
}

TEST(PartitionTrials, RandomSplitsReachScenario51Outcome) {
  // With no Byzantine stake and p0 = 0.5, every realised honest split
  // still leaks to conflicting finalization; the epoch varies with the
  // split's imbalance but stays within the horizon.
  PartitionTrialsConfig cfg;
  cfg.base = base(Strategy::kNone, 0.0);
  cfg.base.n_validators = 200;
  cfg.base.trajectory_stride = cfg.base.max_epochs;
  cfg.trials = env::scaled_count(16);
  const auto r = run_partition_trials(cfg);
  EXPECT_EQ(r.trials, cfg.trials);
  EXPECT_EQ(r.conflict_epochs.size(), cfg.trials);
  EXPECT_DOUBLE_EQ(r.conflicting_fraction, 1.0);
  EXPECT_GT(r.mean_conflict_epoch, 0.0);
  EXPECT_LE(r.mean_conflict_epoch, 6000.0);
}

TEST(PartitionTrials, InvalidConfigThrows) {
  PartitionTrialsConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW(run_partition_trials(cfg), std::invalid_argument);
  cfg.trials = 4;
  cfg.base.n_validators = 0;
  EXPECT_THROW(run_partition_trials(cfg), std::invalid_argument);
}

// --- the class-aggregated core vs the per-validator oracle -------------

void expect_same_branch(const BranchOutcome& got, const BranchOutcome& want) {
  EXPECT_EQ(got.supermajority_epoch, want.supermajority_epoch);
  EXPECT_EQ(got.finalization_epoch, want.finalization_epoch);
  EXPECT_EQ(got.beta_peak, want.beta_peak);
  EXPECT_EQ(got.beta_peak_epoch, want.beta_peak_epoch);
  EXPECT_EQ(got.honest_ejection_epoch, want.honest_ejection_epoch);
  EXPECT_EQ(got.ratio_trajectory, want.ratio_trajectory);
  EXPECT_EQ(got.beta_trajectory, want.beta_trajectory);
  EXPECT_EQ(got.healed_epoch, want.healed_epoch);
}

void expect_same_recovery(const RecoveryOutcome& got,
                          const RecoveryOutcome& want) {
  EXPECT_EQ(got.from_branch, want.from_branch);
  EXPECT_EQ(got.class_size, want.class_size);
  EXPECT_EQ(got.healed_epoch, want.healed_epoch);
  EXPECT_EQ(got.return_epoch, want.return_epoch);
  EXPECT_EQ(got.ejected_before_return, want.ejected_before_return);
  EXPECT_EQ(got.score_at_return, want.score_at_return);
  EXPECT_EQ(got.stake_at_return_eth, want.stake_at_return_eth);
  EXPECT_EQ(got.residual_loss_eth, want.residual_loss_eth);
  EXPECT_EQ(got.recovery_epochs, want.recovery_epochs);
}

/// Every PartitionSimResult field, compared exactly.
void expect_same(const PartitionSimResult& got,
                 const PartitionSimResult& want) {
  ASSERT_EQ(got.branch.size(), want.branch.size());
  for (std::size_t b = 0; b < got.branch.size(); ++b) {
    SCOPED_TRACE("branch " + std::to_string(b));
    expect_same_branch(got.branch[b], want.branch[b]);
  }
  EXPECT_EQ(got.conflicting_finalization_epoch,
            want.conflicting_finalization_epoch);
  EXPECT_EQ(got.beta_exceeded_third_both, want.beta_exceeded_third_both);
  EXPECT_EQ(got.n_byzantine, want.n_byzantine);
  EXPECT_EQ(got.n_honest_per_branch, want.n_honest_per_branch);
  EXPECT_EQ(got.heal_complete_epoch, want.heal_complete_epoch);
  EXPECT_EQ(got.recovery_complete_epoch, want.recovery_complete_epoch);
  EXPECT_EQ(got.residual_loss_total_eth, want.residual_loss_total_eth);
  ASSERT_EQ(got.recovery.size(), want.recovery.size());
  for (std::size_t i = 0; i < got.recovery.size(); ++i) {
    SCOPED_TRACE("recovery " + std::to_string(i));
    expect_same_recovery(got.recovery[i], want.recovery[i]);
  }
}

void expect_same_trials(const PartitionTrialsResult& got,
                        const PartitionTrialsResult& want) {
  EXPECT_EQ(got.trials, want.trials);
  EXPECT_EQ(got.conflict_epochs, want.conflict_epochs);
  EXPECT_EQ(got.beta_peaks, want.beta_peaks);
  EXPECT_EQ(got.conflicting_fraction, want.conflicting_fraction);
  EXPECT_EQ(got.beta_exceeded_fraction, want.beta_exceeded_fraction);
  EXPECT_EQ(got.mean_conflict_epoch, want.mean_conflict_epoch);
  EXPECT_EQ(got.residual_losses_eth, want.residual_losses_eth);
  EXPECT_EQ(got.recovery_epochs, want.recovery_epochs);
  EXPECT_EQ(got.recovered_fraction, want.recovered_fraction);
  EXPECT_EQ(got.mean_residual_loss_eth, want.mean_residual_loss_eth);
  EXPECT_EQ(got.mean_recovery_epoch, want.mean_recovery_epoch);
}

PartitionSimResult run_checked(const PartitionSimConfig& cfg) {
  auto r = run_partition_sim(cfg);
  expect_same(r, oracle::run_partition_sim_scalar(cfg));
  return r;
}

std::string describe(const PartitionSimConfig& cfg) {
  std::ostringstream os;
  os << "n=" << cfg.n_validators << " k=" << cfg.branches
     << " beta0=" << cfg.beta0 << " p0=" << cfg.p0
     << " strategy=" << static_cast<int>(cfg.strategy)
     << " churn=" << cfg.spec.use_churn_limit << "/"
     << cfg.spec.min_per_epoch_churn_limit << "/"
     << cfg.spec.churn_limit_quotient << " windows=[";
  for (const auto& w : cfg.windows) {
    os << " " << w.open_epoch << "-" << w.heal_epoch;
  }
  os << " ] outages=[";
  for (const auto& o : cfg.outages) {
    os << " " << o.from_epoch << "+" << o.span_epochs << "@" << o.cohort;
  }
  os << " ]";
  return os.str();
}

/// One seeded point of the oracle grid: every strategy, k in 2..8,
/// staggered heals or windows with late opens, overlapping outages, churn
/// on or off, n log-uniform in [k, max_n].  The leak runs 64x the
/// paper's speed (quotient 2^20) so ejections, exit queues,
/// finalization and recovery tails all land within a short horizon.
PartitionSimConfig random_config(Rng& rng, std::uint32_t max_n) {
  PartitionSimConfig cfg;
  cfg.strategy = static_cast<Strategy>(rng.uniform_index(4));
  cfg.branches = 2 + static_cast<std::uint32_t>(rng.uniform_index(7));
  const double log_span = std::log(static_cast<double>(max_n) /
                                   static_cast<double>(cfg.branches));
  cfg.n_validators = std::clamp(
      static_cast<std::uint32_t>(std::llround(
          cfg.branches * std::exp(rng.uniform(0.0, log_span)))),
      cfg.branches, max_n);
  cfg.beta0 = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 0.45);
  if (cfg.branches == 2) cfg.p0 = rng.uniform(0.2, 0.8);
  cfg.trajectory_stride = 1;
  cfg.max_epochs = 1500;
  cfg.spec.inactivity_penalty_quotient = 1ULL << 20;
  if (rng.uniform() < 0.5) {
    cfg.spec.use_churn_limit = true;
    cfg.spec.min_per_epoch_churn_limit = 1 + rng.uniform_index(6);
    // A small quotient makes the limit follow the live count.
    cfg.spec.churn_limit_quotient = 1ULL << (4 + rng.uniform_index(8));
  }
  switch (rng.uniform_index(3)) {
    case 0:
      break;  // partitioned for the whole horizon
    case 1: {  // legacy staggered heals: all open at 1, heal h + (b-1)s
      const std::size_t heal = 50 + rng.uniform_index(600);
      const std::size_t stagger = rng.uniform_index(200);
      for (std::uint32_t b = 1; b < cfg.branches; ++b) {
        cfg.windows.push_back({1, heal + (b - 1) * stagger});
      }
      break;
    }
    default:  // explicit windows, late opens included
      for (std::uint32_t b = 1; b < cfg.branches; ++b) {
        BranchWindow w;
        w.open_epoch = 1 + (rng.uniform() < 0.3 ? 0 : rng.uniform_index(700));
        if (rng.uniform() < 0.8) {
          w.heal_epoch = w.open_epoch + 1 + rng.uniform_index(500);
        }
        cfg.windows.push_back(w);
      }
      break;
  }
  const auto outages = rng.uniform_index(3);
  for (std::uint64_t i = 0; i < outages; ++i) {
    OutageWindow o;
    o.from_epoch = 1 + rng.uniform_index(600);
    o.span_epochs = 1 + rng.uniform_index(300);
    o.cohort = rng.uniform(0.01, 1.0);
    cfg.outages.push_back(o);
  }
  return cfg;
}

TEST(ClassCore, EqualsPerValidatorOracleOnSeededGrid) {
  Rng rng(0x9a27'0013ULL);
  const std::size_t configs = env::scaled_count(48);
  for (std::size_t i = 0; i < configs; ++i) {
    auto cfg = random_config(rng, 2000);
    // Pin both ends of the n range.
    if (i == 0) cfg.n_validators = cfg.branches;
    if (i == 1) cfg.n_validators = 2000;
    SCOPED_TRACE("config " + std::to_string(i) + ": " + describe(cfg));
    expect_same(run_partition_sim(cfg), oracle::run_partition_sim_scalar(cfg));
  }
}

TEST(ClassCore, EqualsPerValidatorOracleOnPinnedChurnPaths) {
  // Churn paths the random grid reaches only rarely.
  auto cfg = base(Strategy::kNone, 0.0);
  cfg.n_validators = 2000;
  cfg.max_epochs = 1500;
  cfg.trajectory_stride = 1;
  cfg.spec.inactivity_penalty_quotient = 1ULL << 20;
  cfg.spec.use_churn_limit = true;
  cfg.spec.min_per_epoch_churn_limit = 1;
  {
    // The outage prefix depletes with branch 1's class and queues ahead
    // of it, so the class's representative is still live when the heal
    // ends the leak and exits during the recovery tail, while its
    // class's score is still draining.
    auto c = cfg;
    heal_two_branches(&c, 600);
    c.outages = {OutageWindow{1, 600, 0.05}};
    SCOPED_TRACE(describe(c));
    const auto r = run_checked(c);
    ASSERT_EQ(r.recovery.size(), 1U);
    EXPECT_EQ(r.recovery[0].return_epoch, 602);
    EXPECT_LT(r.recovery[0].recovery_epochs,
              static_cast<std::int64_t>(r.recovery[0].score_at_return) / 17);
  }
  {
    // Branch 1's depleted class heals at 540 and returns at 542, still
    // queued.  The outage at 600 idles 70% of the honest set, so branch
    // 0 leaks again and the representative exits mid-leak, while the
    // rest of its class keeps paying: its residual loss must use the
    // balance it exited with.
    auto c = cfg;
    c.n_validators = 100;
    heal_two_branches(&c, 540);
    c.outages = {OutageWindow{600, 100, 0.7}};
    SCOPED_TRACE(describe(c));
    const auto r = run_checked(c);
    ASSERT_EQ(r.recovery.size(), 1U);
    EXPECT_EQ(r.recovery[0].return_epoch, 542);
    EXPECT_GT(r.recovery[0].recovery_epochs, 60);
  }
  {
    // Branch 2 opens late, forking branch 0 while its exit queue is
    // part-way through branch 1's class: the fork re-queues only the
    // members that have not exited.
    auto c = cfg;
    c.n_validators = 1200;
    c.beta0 = 0.25;
    c.branches = 3;
    c.spec.min_per_epoch_churn_limit = 2;
    c.windows = {BranchWindow{1, 0}, BranchWindow{700, 0}};
    SCOPED_TRACE(describe(c));
    const auto r = run_checked(c);
    EXPECT_GT(r.branch[0].honest_ejection_epoch, 0);
    EXPECT_LT(r.branch[0].honest_ejection_epoch, 700);
  }
}

TEST(ClassCore, TrialsEqualScalarOracleOnRandomSplits) {
  // Random splits scatter every branch class over the index range, so
  // class members are interleaved with each other's (and the exit
  // queue's index order interleaves them too).
  Rng rng(0x9a27'0014ULL);
  const std::size_t configs = env::scaled_count(12);
  for (std::size_t i = 0; i < configs; ++i) {
    PartitionTrialsConfig tc;
    tc.base = random_config(rng, 400);
    tc.trials = 3;
    tc.threads = 1;
    tc.seed = 7 + i;
    SCOPED_TRACE("config " + std::to_string(i) + ": " + describe(tc.base));
    expect_same_trials(run_partition_trials(tc),
                       oracle::run_partition_trials_scalar(tc));
  }
}

// --- threshold edge cases (each also equals the oracle) ----------------

TEST(Thresholds, ExactlyOneThirdByzantineIsNoSupermajority) {
  // Slashable Byzantine validators attest on both branches, so a
  // branch's active share is (n_byz + its honest half) / n, and no
  // balance moves before the leak starts at epoch 5.  n = 999: 333
  // Byzantine give exactly 666/999 = 2/3 -- not a supermajority (> 2/3
  // is strict) -- while 334 give 667/999 on branch 0, which finalizes
  // at epoch 2.
  auto cfg = base(Strategy::kSlashable, 0.0);
  cfg.n_validators = 999;
  cfg.max_epochs = 4;
  for (const std::uint32_t n_byz : {332U, 333U, 334U}) {
    SCOPED_TRACE("n_byz=" + std::to_string(n_byz));
    cfg.beta0 = static_cast<double>(n_byz) / 999.0;
    const auto r = run_checked(cfg);
    ASSERT_EQ(r.n_byzantine, n_byz);
    EXPECT_EQ(r.branch[0].finalization_epoch, n_byz > 333 ? 2 : -1);
    EXPECT_EQ(r.branch[1].supermajority_epoch, -1);  // at most 666/999
  }
}

TEST(Thresholds, ByzantineAloneFinalizesOnlyAboveTwoThirds) {
  // p0 = 0 leaves branch 0 without honest validators, so before the
  // leak its active share is the slashable Byzantine stake alone:
  // 666/999 is exactly 2/3 and no supermajority, 667/999 finalizes at
  // epoch 2.
  auto cfg = base(Strategy::kSlashable, 0.0, 0.0);
  cfg.n_validators = 999;
  cfg.max_epochs = 4;
  for (const std::uint32_t n_byz : {665U, 666U, 667U}) {
    SCOPED_TRACE("n_byz=" + std::to_string(n_byz));
    cfg.beta0 = static_cast<double>(n_byz) / 999.0;
    const auto r = run_checked(cfg);
    ASSERT_EQ(r.n_byzantine, n_byz);
    EXPECT_EQ(r.branch[0].finalization_epoch, n_byz > 666 ? 2 : -1);
  }
}

TEST(Thresholds, EmptyHonestClassHasNoRepresentative) {
  // p0 = 1 leaves branch 1 without honest validators (representative
  // index n): it never reaches a supermajority, and its healed class
  // reports size 0 and no return.  p0 = 0 empties branch 0 instead:
  // branch 1 finalizes at once, branch 0 only after the heal brings
  // branch 1's class over.
  auto cfg = base(Strategy::kNone, 0.0);
  cfg.n_validators = 300;
  cfg.max_epochs = 3000;
  heal_two_branches(&cfg, 1000);
  cfg.p0 = 1.0;
  const auto all_on_0 = run_checked(cfg);
  EXPECT_EQ(all_on_0.n_honest_per_branch[1], 0U);
  EXPECT_EQ(all_on_0.branch[0].finalization_epoch, 2);
  EXPECT_EQ(all_on_0.branch[1].supermajority_epoch, -1);
  ASSERT_EQ(all_on_0.recovery.size(), 1U);
  EXPECT_EQ(all_on_0.recovery[0].class_size, 0U);
  EXPECT_EQ(all_on_0.recovery[0].return_epoch, -1);
  EXPECT_FALSE(all_on_0.recovery[0].ejected_before_return);

  cfg.p0 = 0.0;
  const auto all_on_1 = run_checked(cfg);
  EXPECT_EQ(all_on_1.n_honest_per_branch[0], 0U);
  EXPECT_EQ(all_on_1.branch[1].finalization_epoch, 2);
  EXPECT_EQ(all_on_1.branch[0].supermajority_epoch, 1000);
  EXPECT_EQ(all_on_1.branch[0].finalization_epoch, 1001);
}

TEST(Thresholds, OneValidatorPerBranchMatchesLargeSplit) {
  // n == branches puts one honest validator on each branch.  Classes
  // make the outcome scale-free: it equals the 100-per-branch run's.
  for (const std::uint32_t k : {2U, 3U, 5U}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto cfg = base(Strategy::kNone, 0.0);
    cfg.branches = k;
    cfg.n_validators = k;
    const auto tiny = run_checked(cfg);
    cfg.n_validators = 100 * k;
    const auto large = run_partition_sim(cfg);
    ASSERT_GT(tiny.conflicting_finalization_epoch, 0);
    EXPECT_EQ(tiny.conflicting_finalization_epoch,
              large.conflicting_finalization_epoch);
    EXPECT_EQ(tiny.branch[0].honest_ejection_epoch,
              large.branch[0].honest_ejection_epoch);
  }
}

TEST(Thresholds, OutageCohortsRoundingToNoneAndAll) {
  auto cfg = base(Strategy::kNone, 0.0);
  cfg.n_validators = 100;
  cfg.max_epochs = 600;
  cfg.trajectory_stride = 1;
  const auto plain = run_checked(cfg);
  // 0.004 * 100 rounds to 0: the outage idles nobody, so the ratio
  // trajectory is the outage-free one.
  cfg.outages = {OutageWindow{10, 50, 0.004}};
  const auto none = run_checked(cfg);
  EXPECT_EQ(none.branch[0].ratio_trajectory, plain.branch[0].ratio_trajectory);
  // 0.996 * 100 rounds to 100: every honest validator sits out epochs
  // [10, 60) on every branch, and the active ratio is 0 there.
  cfg.outages = {OutageWindow{10, 50, 0.996}};
  const auto all = run_checked(cfg);
  for (std::uint32_t b = 0; b < 2; ++b) {
    const auto& traj = all.branch[b].ratio_trajectory;
    ASSERT_GE(traj.size(), 60U);
    EXPECT_GT(traj[8], 0.0);  // epoch 9
    for (std::size_t t = 10; t < 60; ++t) EXPECT_EQ(traj[t - 1], 0.0);
    EXPECT_GT(traj[59], 0.0);  // epoch 60
  }
}

TEST(Thresholds, OutageBreakingASupermajorityDelaysEveryBranch) {
  // Both branches first reach a supermajority at 3112.  A one-epoch
  // outage of every honest validator at 3113 drops each branch's
  // active ratio to the Byzantine 0.222, so no branch finalizes there:
  // both need two more consecutive supermajority epochs, 3114 and 3115.
  auto cfg = base(Strategy::kSlashable, 0.2);
  cfg.trajectory_stride = 1;
  cfg.outages = {OutageWindow{3113, 1, 1.0}};
  const auto r = run_checked(cfg);
  for (std::uint32_t b = 0; b < 2; ++b) {
    SCOPED_TRACE("branch " + std::to_string(b));
    EXPECT_EQ(r.branch[b].supermajority_epoch, 3112);
    ASSERT_GE(r.branch[b].ratio_trajectory.size(), 3113U);
    EXPECT_LT(r.branch[b].ratio_trajectory[3112], 2.0 / 3.0);  // epoch 3113
    EXPECT_EQ(r.branch[b].finalization_epoch, 3115);
  }
  EXPECT_EQ(r.conflicting_finalization_epoch, 3115);
}

TEST(Thresholds, DegenerateHorizonAndBranchCounts) {
  auto cfg = base(Strategy::kNone, 0.0);
  // max_epochs = 0 simulates nothing: every outcome stays unreached.
  cfg.max_epochs = 0;
  const auto r = run_checked(cfg);
  EXPECT_EQ(r.conflicting_finalization_epoch, -1);
  EXPECT_TRUE(r.branch[0].ratio_trajectory.empty());
  EXPECT_EQ(r.branch[1].supermajority_epoch, -1);
  // Fewer validators than branches leaves a branch with nobody on it.
  cfg.max_epochs = 10;
  cfg.n_validators = 2;
  cfg.branches = 3;
  EXPECT_THROW(run_partition_sim(cfg), std::invalid_argument);
}

TEST(Mechanics, ZeroTrajectoryStrideRejected) {
  // trajectory_stride = 0 would reach t % 0 (SIGFPE on x86).
  auto cfg = base(Strategy::kNone, 0.0);
  cfg.trajectory_stride = 0;
  EXPECT_THROW(run_partition_sim(cfg), std::invalid_argument);
  PartitionTrialsConfig tc;
  tc.base = cfg;
  EXPECT_THROW(run_partition_trials(tc), std::invalid_argument);
}

}  // namespace
}  // namespace leak::sim
