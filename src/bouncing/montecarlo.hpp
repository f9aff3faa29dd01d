// Monte Carlo cross-validation of the Section 5.3 analysis: simulate the
// exact discrete protocol dynamics (Eq 1 with the score floored at zero,
// Eq 2 penalties, ejection, stake cap) for honest validators randomly
// re-assigned to a branch every epoch (Figure 8), and measure empirically
// what the closed-form law of distribution.hpp predicts.
#pragma once

#include <cstdint>
#include <vector>

#include "src/analytic/config.hpp"
#include "src/support/random.hpp"
#include "src/support/stats.hpp"

namespace leak::bouncing {

struct McConfig {
  double p0 = 0.5;        ///< honest branch-assignment probability
  double beta0 = 0.33;    ///< Byzantine stake proportion
  /// Branches of the rotation attack the exceedance criterion assumes:
  /// the Byzantine stake on the observed branch follows the 1-in-m
  /// duty-cycle decay (m = 2 is the paper's semi-active two-branch
  /// case and keeps every result bit-identical).  The honest dynamics
  /// are governed by p0 — set p0 = 1/branches for the symmetric
  /// m-branch attack.
  unsigned branches = 2;
  std::size_t paths = 10000;
  std::size_t epochs = 8000;
  std::uint64_t seed = 7;
  /// Worker threads for the path fan-out; 0 = LEAK_THREADS env or
  /// hardware_concurrency.  Results are bit-identical for any value:
  /// path i always draws from the (seed, i) stream and paths merge in
  /// index order.
  unsigned threads = 0;
  /// Paths simulated per lockstep block by the batched SoA kernel
  /// (src/kernel/stake_batch.hpp); 0 = the runner's auto block
  /// (src/runner/thread_pool.hpp).  Results are bit-identical for any value,
  /// including block = 1 and block = paths.
  std::size_t block = 0;
  /// Whether McResult::stakes carries the per-path matrix.  Only the
  /// result changes: the run always fills the snapshots x paths matrix
  /// (memory during the run is O(snapshots x paths) either way) and the
  /// summaries are bit-identical for both values.
  bool keep_paths = true;
  analytic::AnalyticConfig model = analytic::AnalyticConfig::paper();
};

/// Empirical distribution snapshots of one honest validator's stake.
struct McResult {
  /// Epoch grid at which snapshots were taken.
  std::vector<std::size_t> epochs;
  /// stakes[k][i] = stake of path i at epochs[k] (0 when ejected).
  /// Empty when cfg.keep_paths == false.
  std::vector<std::vector<double>> stakes;
  /// Fraction of paths ejected by epochs[k].
  std::vector<double> ejected_fraction;
  /// Fraction of paths still at the cap (score never bit) at epochs[k].
  std::vector<double> capped_fraction;
  /// Empirical P[beta(t) > 1/3] at epochs[k] (Eq 23 criterion against
  /// the semi-active Byzantine stake, one branch).
  std::vector<double> prob_beta_exceeds;
  /// Streaming per-snapshot moments of the full censored sample at
  /// epochs[k], fed in path order, so bit-identical for any
  /// block/threads/keep_paths.
  std::vector<RunningStats> stake_stats;
};

/// Run the Monte Carlo through the batched lockstep kernel;
/// `snapshot_epochs` must be ascending and within [1, cfg.epochs].
/// The scalar reference kernel lives in tests/oracles/ (oracle only;
/// this batched path is bit-identical to it for every (block, threads)
/// pair — the kernel-parity suite enforces it).
McResult run_bouncing_mc(const McConfig& cfg,
                         const std::vector<std::size_t>& snapshot_epochs);

/// Finite-population run: N honest validators per path, branch-level
/// Byzantine proportion measured per epoch on branch A.  Returns the
/// first epoch where beta exceeded 1/3 (or -1) for each path.
struct PopulationRunConfig {
  double p0 = 0.5;
  double beta0 = 0.33;
  std::uint32_t honest_validators = 200;
  std::size_t epochs = 6000;
  std::uint64_t seed = 11;
  analytic::AnalyticConfig model = analytic::AnalyticConfig::paper();
};

/// Epochs between two samples of a population run's beta trajectory.
inline constexpr std::size_t kBetaStride = 16;

struct PopulationRunResult {
  /// Epoch when beta > 1/3 first held on branch A; -1 when never.
  std::int64_t first_exceed_epoch = -1;
  /// beta trajectory on branch A, sampled every `stride` epochs.
  std::vector<double> beta_trajectory;
  std::size_t stride = kBetaStride;
};

/// `count` runs of cfg, run i on seeds[i] (cfg.seed is not read), into
/// out[0, count), played one run per lane of cohort tiles
/// (src/kernel/cohort.hpp): tiles of the widest vector's lanes, and the
/// runs left over in the narrowest tile that holds them.  Each run's
/// result is the same whatever tile it plays in.  Throws
/// std::invalid_argument when cfg.honest_validators is 0.
void run_population_tiles(const PopulationRunConfig& cfg,
                          const std::uint64_t* seeds, std::size_t count,
                          PopulationRunResult* out);

/// Ensemble of independent finite-population runs ("population
/// paths"): path i is run_population_tiles' run on the seed of stream
/// (cfg.base.seed, i), the paths block-scheduled across the trial
/// runner into preallocated outcome slabs.  base.epochs must reach
/// kBetaStride, so every path has a final beta sample to average, and
/// base.honest_validators must be positive (std::invalid_argument
/// otherwise).
struct PopulationEnsembleConfig {
  PopulationRunConfig base;   ///< base.seed is the ensemble master seed
  std::size_t paths = 100;
  unsigned threads = 0;       ///< 0 = LEAK_THREADS / hardware_concurrency
  /// Paths per block, rounded up to whole cohort tiles; 0 = the
  /// runner's auto block (src/runner/thread_pool.hpp).
  std::size_t block = 0;
  /// Whether the result carries first_exceed_epochs.  Only the result
  /// changes: the run always fills the O(paths) outcome slabs and the
  /// aggregates are bit-identical for both values.
  bool keep_paths = true;
};

struct PopulationEnsembleResult {
  /// Per path: epoch when beta first exceeded 1/3 on branch A; -1 never.
  /// Empty when cfg.keep_paths == false.
  std::vector<std::int64_t> first_exceed_epochs;
  /// Fraction of paths whose beta ever exceeded 1/3.
  double exceed_fraction = 0.0;
  /// Mean of the final sampled beta across paths.
  double mean_final_beta = 0.0;
};

PopulationEnsembleResult run_population_ensemble(
    const PopulationEnsembleConfig& cfg);

}  // namespace leak::bouncing
