// Stochastic simulation of the probabilistic bouncing attack as a whole
// (Section 5.3): unlike the per-epoch stake law, this models the
// attack's *lifetime*.  Each epoch the attack only continues if a
// Byzantine proposer lands in one of the first j slots (probability
// 1 - (1-beta)^j, with beta the Byzantine proportion *at that epoch* —
// the stake-weighted refinement of the paper's constant-beta0 bound);
// while it runs, stakes evolve under the Figure 8 dynamics.  The
// simulator measures the attack-duration distribution and the
// unconditional probability that the Byzantine proportion crosses 1/3
// before the attack dies or the Byzantine validators are ejected.
#pragma once

#include <cstdint>
#include <vector>

#include "src/analytic/config.hpp"

namespace leak::bouncing {

struct AttackSimConfig {
  double beta0 = 0.33;  ///< initial Byzantine stake proportion
  double p0 = 0.5;      ///< honest split maintained by the adversary
  int j = 8;            ///< proposer slots usable per epoch
  std::size_t honest_validators = 200;
  std::size_t max_epochs = 8000;
  std::size_t runs = 1000;
  std::uint64_t seed = 2024;
  /// Worker threads for the run fan-out; 0 = LEAK_THREADS env or
  /// hardware_concurrency.  Bit-identical results for any value.
  unsigned threads = 0;
  /// Runs per scheduled block, rounded up to whole cohort tiles (a
  /// tile's lanes refill from the block's runs); 0 = the runner's auto
  /// block (src/runner/thread_pool.hpp).  Bit-identical results for any
  /// value.
  std::size_t block = 0;
  analytic::AnalyticConfig model = analytic::AnalyticConfig::paper();
  /// When true the per-epoch continuation probability uses the current
  /// stake-weighted beta; when false the constant beta0 (paper bound).
  bool stake_weighted_lottery = true;
  /// Whether the result carries durations and break_epochs.  Only the
  /// result changes: the run always fills the O(runs) outcome slabs
  /// and the aggregates are bit-identical for both values.
  bool keep_runs = true;
};

struct AttackSimResult {
  /// Attack duration (epochs) per run.  Empty when cfg.keep_runs ==
  /// false.
  std::vector<std::uint64_t> durations;
  /// Fraction of runs where beta exceeded 1/3 before the attack ended.
  double prob_threshold_broken = 0.0;
  /// Mean / p50 / p99 of the duration distribution.
  double mean_duration = 0.0;
  double median_duration = 0.0;
  double p99_duration = 0.0;
  /// Epoch of threshold break per successful run (for conditioning).
  /// Empty when cfg.keep_runs == false.
  std::vector<std::uint64_t> break_epochs;
};

/// Run the attack-lifetime Monte Carlo.
AttackSimResult run_attack_sim(const AttackSimConfig& cfg);

/// Closed-form expected duration under the constant-beta0 lottery:
/// geometric with failure probability (1-beta0)^j per epoch.
[[nodiscard]] double expected_duration_constant_beta(double beta0, int j);

}  // namespace leak::bouncing
