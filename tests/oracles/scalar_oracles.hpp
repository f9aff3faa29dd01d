// Pre-rollout scalar reference kernels, demoted to test oracles.
//
// Each function here is the verbatim scalar implementation a driver
// shipped before it was converted to the SoA batched kernel layer
// (src/kernel/): one validator / one path at a time, branchy, with the
// exact draw order and floating-point op order the batched kernels are
// required to reproduce bit-for-bit.  The production drivers in src/
// no longer carry these paths — they exist only to be compared
// against, by the bit-identity suites (tests/test_montecarlo_batch.cpp)
// and the per-driver speedup benchmarks (bench/bench_kernel_speedup.cpp).
//
// Do not "fix" or modernize this code: its value is that it does not
// change.  Any intentional change to a driver's numeric contract must
// update the oracle and the committed scenario baselines together.
#pragma once

#include <cstddef>
#include <vector>

#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/sim/partition_sim.hpp"

namespace leak::oracle {

/// Scalar Figure 8 Monte Carlo: one path at a time through the branchy
/// per-epoch update.  Ignores cfg.block / cfg.keep_paths — it is the
/// fixed reference, always returning the per-path matrix.
bouncing::McResult run_bouncing_mc_scalar(
    const bouncing::McConfig& cfg,
    const std::vector<std::size_t>& snapshot_epochs);

/// Scalar bouncing-attack lifetime simulator: per-validator branchy
/// loops and the run-order duration aggregation (Welford mean, type-7
/// quantiles of the duration vector) the batched driver must match
/// exactly.  Ignores cfg.keep_runs — always returns the per-run rows.
bouncing::AttackSimResult run_attack_sim_scalar(
    const bouncing::AttackSimConfig& cfg);

/// Scalar single-population run (one shared RNG stream across the
/// honest cohort, validators updated in index order).
bouncing::PopulationRunResult run_population_bouncing_scalar(
    const bouncing::PopulationRunConfig& cfg);

/// Scalar population ensemble over run_population_bouncing_scalar.
/// Ignores cfg.keep_paths — always returns the per-path outcomes.
bouncing::PopulationEnsembleResult run_population_ensemble_scalar(
    const bouncing::PopulationEnsembleConfig& cfg);

/// Scalar partition Monte Carlo: the pre-fusion per-epoch activity /
/// metrics passes (separate total_active_balance sweep) and the serial
/// trial aggregation.
sim::PartitionTrialsResult run_partition_trials_scalar(
    const sim::PartitionTrialsConfig& cfg);

/// Scalar single partition run: the same per-validator core over
/// run_partition_sim's deterministic honest split (round(p0 * n_honest)
/// on branch 0 for two branches, equal contiguous chunks for k > 2).
sim::PartitionSimResult run_partition_sim_scalar(
    const sim::PartitionSimConfig& cfg);

}  // namespace leak::oracle
