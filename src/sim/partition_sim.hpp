// Epoch-granular agent simulation of the partition scenarios of
// Section 5 (5.1, 5.2.1, 5.2.2, 5.2.3), generalized to k >= 2 branches
// with a pairwise heal schedule (staggered GSTs).
//
// Branches grow independently during the partition; each branch has
// its own view of the validator set (stakes, scores, ejections are
// branch-relative — Section 4.1: "if there are multiple branches, a
// validator's inactivity score depends on the selected branch").  A view
// is one record per validator class (branch class x outage segment,
// plus the Byzantine class) with member counts: members of a class share
// their whole trajectory, so each epoch costs O(branches x classes)
// whatever the validator count (docs/ARCHITECTURE.md, "Class-aggregated
// partition state").  Honest validators are active
// on exactly one branch; Byzantine validators behave per the configured
// strategy.  With a heal schedule (`windows`), branch b merges into the
// canonical branch 0 at its window's heal epoch; its honest
// validators then attest on branch 0, their scores drain, and — once
// finalization resumes — the simulator tracks the post-leak recovery
// tail (the Figure 3 "penalties take some time to return to zero"
// effect) that analytic::recovery models in closed form.  The simulator
// uses the exact protocol arithmetic of leak_penalties (integer Gwei,
// floored scores), so it cross-validates the continuous closed forms of
// leak_analytic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/chain/registry.hpp"
#include "src/penalties/inactivity.hpp"
#include "src/penalties/spec_config.hpp"

namespace leak::sim {

/// Byzantine strategy during the partition.
enum class Strategy : std::uint8_t {
  kNone,                ///< Section 5.1: all honest
  kSlashable,           ///< Section 5.2.1: active on both branches
  kSemiActiveFinalize,  ///< Section 5.2.2: alternate; finalize ASAP
  kSemiActiveOverthrow, ///< Section 5.2.3: alternate; never finalize
};

/// Explicit partition window for one non-canonical branch (compiled
/// from a faults::FaultSchedule by faults::compile_partition).  Branch
/// b (1 <= b < branches) splits off the canonical branch at the start
/// of `open_epoch` -- forking branch 0's class records at that
/// moment -- and merges back at the start of `heal_epoch` (0 = stays
/// partitioned for the whole horizon).  Until its branch opens, the
/// branch's honest class attests on branch 0.
struct BranchWindow {
  std::size_t open_epoch = 1;
  std::size_t heal_epoch = 0;
};

/// Scheduled validator outage: the first round(cohort * n_honest)
/// honest validators go inactive on every branch during epochs
/// [from_epoch, from_epoch + span_epochs).
struct OutageWindow {
  std::size_t from_epoch = 0;
  std::size_t span_epochs = 0;
  double cohort = 0.0;
};

struct PartitionSimConfig {
  std::uint32_t n_validators = 1000;
  double beta0 = 0.0;  ///< Byzantine stake proportion
  /// Honest proportion on branch 1 (two-branch case).  Only meaningful
  /// with branches == 2; combining a non-default p0 with branches > 2
  /// is rejected (the k-branch split is uniform).
  double p0 = 0.5;
  Strategy strategy = Strategy::kNone;
  std::size_t max_epochs = 6000;
  penalties::SpecConfig spec = penalties::SpecConfig::paper();
  /// Record the active-stake ratio every `trajectory_stride` epochs.
  std::size_t trajectory_stride = 8;
  /// Number of partition branches k >= 2.  The paper's Section 5
  /// scenarios are branches = 2 (the default): the paper's two-way
  /// partition.
  std::uint32_t branches = 2;
  /// Per-branch open/heal schedule (entry b-1 describes branch b),
  /// normally compiled from a faults::FaultSchedule.  Empty = every
  /// branch opens at epoch 1 and none heals.  When non-empty it must
  /// have exactly branches-1 entries.  Note: a late open forks the canonical class
  /// records only; with use_churn_limit the canonical exit queue is
  /// not forked (the fork's depleted members queue afresh), so
  /// cascading opens pair with the paper's instantaneous-ejection spec.
  std::vector<BranchWindow> windows;
  /// Scheduled honest-cohort outages, applied on every branch.
  std::vector<OutageWindow> outages;
};

/// Per-branch outcome.
struct BranchOutcome {
  /// First epoch with > 2/3 active stake; -1 when never within horizon.
  std::int64_t supermajority_epoch = -1;
  /// Epoch of finalization on the branch: the second epoch of a
  /// supermajority streak; -1 never.
  std::int64_t finalization_epoch = -1;
  /// Maximum Byzantine stake proportion observed on the branch.
  double beta_peak = 0.0;
  /// Epoch of the Byzantine peak.
  std::int64_t beta_peak_epoch = 0;
  /// Epoch the honest-inactive class got ejected; -1 when not reached.
  std::int64_t honest_ejection_epoch = -1;
  /// Sampled active-stake ratio trajectory.
  std::vector<double> ratio_trajectory;
  /// Sampled Byzantine-proportion trajectory.
  std::vector<double> beta_trajectory;
  /// Epoch the branch merged into branch 0; -1 when it never healed.
  std::int64_t healed_epoch = -1;
};

/// Post-leak recovery of one healed honest class (the validators that
/// sat out branch 0 until their branch merged), per-validator: every
/// member of a class shares the same activity history, so one
/// representative describes the whole class.
struct RecoveryOutcome {
  std::uint32_t from_branch = 0;   ///< branch the class came from
  std::uint32_t class_size = 0;    ///< honest validators in the class
  std::int64_t healed_epoch = -1;  ///< when the class merged
  /// First epoch of the post-leak recovery (both healed and the leak
  /// over); -1 when the leak never ended within the horizon.
  std::int64_t return_epoch = -1;
  /// True when the class was ejected on branch 0 before it could heal.
  bool ejected_before_return = false;
  /// Protocol inactivity score at the start of the recovery.
  double score_at_return = 0.0;
  /// Balance at the start of the recovery, ETH.
  double stake_at_return_eth = 0.0;
  /// Balance lost after the leak ended (score > 0 keeps inflicting
  /// Eq 2 penalties while draining at decrement + recovery rate), ETH
  /// per validator.  analytic::residual_loss is the closed form.
  double residual_loss_eth = 0.0;
  /// Epochs from return until the class score reached zero; -1 when
  /// the horizon cut the recovery short.
  std::int64_t recovery_epochs = -1;
};

struct PartitionSimResult {
  /// One outcome per branch (size = config.branches).
  std::vector<BranchOutcome> branch;
  /// Epoch at which two branches had finalized conflicting checkpoints;
  /// -1 when not reached within the horizon.
  std::int64_t conflicting_finalization_epoch = -1;
  /// Whether Byzantine proportion exceeded 1/3 on every branch.
  bool beta_exceeded_third_both = false;
  /// Number of validators of each class (derived from config).
  std::uint32_t n_byzantine = 0;
  std::vector<std::uint32_t> n_honest_per_branch;
  /// Epoch the last branch merged into branch 0; -1 when healing is
  /// disabled or the schedule ran past the horizon.
  std::int64_t heal_complete_epoch = -1;
  /// Epoch every alive validator's score returned to zero after the
  /// leak ended; -1 when not reached (or healing disabled).
  std::int64_t recovery_complete_epoch = -1;
  /// Total balance lost across all validators after the leak ended
  /// (the recovery tail), ETH.
  double residual_loss_total_eth = 0.0;
  /// Per healed honest class recovery summaries (branches 1..k-1).
  std::vector<RecoveryOutcome> recovery;
};

/// Run the scenario.  Deterministic (no randomness needed: classes are
/// homogeneous, so counts are rounded from the proportions).  Throws
/// std::invalid_argument on a bad config, trajectory_stride 0 included.
PartitionSimResult run_partition_sim(const PartitionSimConfig& cfg);

/// Monte Carlo over the partition scenario: each trial redraws the
/// honest branch assignment iid (with branches = 2 each honest
/// validator lands on branch 1 with probability p0, the paper's split;
/// with branches > 2 the assignment is uniform over the k
/// branches) instead of using the rounded deterministic split,
/// measuring how sensitive the Section 5 outcomes are to the realised
/// split.  Trial i always draws from the (seed, i) stream and trials
/// merge in index order, so the result is bit-identical for any thread
/// count.
struct PartitionTrialsConfig {
  PartitionSimConfig base;
  std::size_t trials = 64;
  std::uint64_t seed = 2024;
  unsigned threads = 0;   ///< 0 = LEAK_THREADS / hardware_concurrency
  std::size_t block = 0;  ///< trials per block; 0 = the runner's auto
};

struct PartitionTrialsResult {
  std::size_t trials = 0;
  /// Per trial: epoch of conflicting finalization (-1 when never).
  std::vector<std::int64_t> conflict_epochs;
  /// Per trial: max Byzantine-proportion peak across the branches.
  std::vector<double> beta_peaks;
  /// Fraction of trials reaching conflicting finalization.
  double conflicting_fraction = 0.0;
  /// Fraction of trials with beta > 1/3 on every branch.
  double beta_exceeded_fraction = 0.0;
  /// Mean conflict epoch over the trials that reached one (0 if none).
  double mean_conflict_epoch = 0.0;
  // Recovery aggregates; all zero / empty when healing is disabled.
  /// Per trial: total post-leak balance lost (ETH).
  std::vector<double> residual_losses_eth;
  /// Per trial: recovery_complete_epoch (-1 when not reached).
  std::vector<std::int64_t> recovery_epochs;
  /// Fraction of trials whose recovery completed within the horizon.
  double recovered_fraction = 0.0;
  /// Mean residual loss across all trials (ETH).
  double mean_residual_loss_eth = 0.0;
  /// Mean recovery-completion epoch over recovered trials (0 if none).
  double mean_recovery_epoch = 0.0;
};

PartitionTrialsResult run_partition_trials(const PartitionTrialsConfig& cfg);

}  // namespace leak::sim
