#include "src/bouncing/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/kernel/accumulators.hpp"
#include "src/kernel/cohort.hpp"
#include "src/kernel/stake_batch.hpp"
#include "src/runner/trial_runner.hpp"

namespace leak::bouncing {

namespace {

void validate_grid(const McConfig& cfg,
                   const std::vector<std::size_t>& snapshot_epochs) {
  // The grid must be strictly increasing: a path records one value per
  // matched epoch, so duplicates would leave the merge reading past it.
  if (snapshot_epochs.empty() ||
      !std::is_sorted(snapshot_epochs.begin(), snapshot_epochs.end()) ||
      std::adjacent_find(snapshot_epochs.begin(), snapshot_epochs.end()) !=
          snapshot_epochs.end() ||
      snapshot_epochs.back() > cfg.epochs) {
    throw std::invalid_argument("run_bouncing_mc: bad snapshot grid");
  }
  if (cfg.branches < 2) {
    throw std::invalid_argument("run_bouncing_mc: branches must be >= 2");
  }
}

}  // namespace

McResult run_bouncing_mc(const McConfig& cfg,
                         const std::vector<std::size_t>& snapshot_epochs) {
  validate_grid(cfg, snapshot_epochs);
  McResult res;
  res.epochs = snapshot_epochs;
  const std::size_t snapshots = snapshot_epochs.size();
  kernel::SnapshotAccumulators acc(cfg.branches, cfg.beta0, cfg.model,
                                   snapshot_epochs);
  const StreamSeeder seeder(cfg.seed);
  const runner::TrialRunner pool(cfg.threads);

  // Blocks write disjoint column ranges of the preallocated matrix —
  // no merge step, no per-path allocation — and the summaries stream
  // over the finished rows in path order on this thread.
  std::vector<std::vector<double>> stakes(snapshots,
                                          std::vector<double>(cfg.paths));
  std::vector<double*> rows(snapshots);
  for (std::size_t k = 0; k < snapshots; ++k) rows[k] = stakes[k].data();
  const auto simulate_block = [&](std::size_t begin, std::size_t end) {
    // One scratch per worker thread, reused across the blocks it claims
    // (reset() re-seeds without reallocating).  Purely an allocation
    // cache: every value in it is re-derived from the (seed, path)
    // stream before use, so thread placement can never reach the
    // results (enforced by the oracle-vs-batched bit-identity suite).
    // leaklint: allow(D5): per-thread allocation cache only; contents fully re-seeded per block, results bit-identical across thread counts
    static thread_local kernel::BatchPaths scratch;
    kernel::simulate_stake_block(cfg.model, cfg.p0, cfg.epochs,
                                 snapshot_epochs, seeder, begin, end - begin,
                                 scratch, rows.data());
  };
  pool.run_blocks(cfg.paths, cfg.block, simulate_block);
  for (std::size_t k = 0; k < snapshots; ++k) {
    for (const double stake : stakes[k]) acc.add(k, stake);
  }
  if (cfg.keep_paths) res.stakes = std::move(stakes);
  acc.finalize(cfg.paths, &res.ejected_fraction, &res.capped_fraction,
               &res.prob_beta_exceeds, &res.stake_stats);
  return res;
}

PopulationRunResult run_population_bouncing(const PopulationRunConfig& cfg) {
  PopulationRunResult res;
  Rng rng(cfg.seed);
  const std::uint32_t n = cfg.honest_validators;
  // Honest cohort rides the SoA draw/update kernel: one draw per live
  // validator in index order (exactly the scalar oracle's stream
  // consumption), then a branchless vectorized update pass.  Scratch
  // is per worker thread, reused across the runs it claims — purely an
  // allocation cache, fully re-initialized per call.
  // leaklint: allow(D5): per-thread allocation cache only; contents fully re-initialized per run, results bit-identical across thread counts
  static thread_local kernel::LeakCohort cohort;
  cohort.reset(n, cfg.model);

  kernel::SemiActiveByzantine byz(cfg.model);  // tracked branch A

  // Branch-level Byzantine proportion at the end of epoch t (Eq 23 with
  // population averages), from that epoch's honest stake sum.
  const auto observe = [&](std::size_t t, double honest_total) {
    const double beta =
        byz.beta(cfg.beta0, honest_total / static_cast<double>(n));
    if (t % res.stride == 0) res.beta_trajectory.push_back(beta);
    if (res.first_exceed_epoch < 0 && beta > 1.0 / 3.0 && !byz.ejected) {
      res.first_exceed_epoch = static_cast<std::int64_t>(t);
    }
  };
  for (std::size_t t = 1; t <= cfg.epochs; ++t) {
    // Honest validators: iid branch assignment (Figure 8).  The draw
    // pass also sums the stakes epoch t - 1 left, which is observed
    // before the Byzantine update of epoch t.
    const double honest_total = cohort.draw(rng);
    if (t > 1) observe(t - 1, honest_total);
    cohort.update(cfg.model, cfg.p0);
    byz.step(cfg.model, t);
  }
  if (cfg.epochs > 0) observe(cfg.epochs, cohort.stake_sum());
  return res;
}

PopulationEnsembleResult run_population_ensemble(
    const PopulationEnsembleConfig& cfg) {
  if (cfg.paths == 0) {
    throw std::invalid_argument("run_population_ensemble: no paths");
  }
  if (cfg.base.epochs < kBetaStride) {
    throw std::invalid_argument(
        "run_population_ensemble: epochs below the beta sampling stride");
  }
  const StreamSeeder seeder(cfg.base.seed);
  const runner::TrialRunner pool(cfg.threads);

  // Block-scheduled fan-out into preallocated outcome slabs (only the
  // two scalars the ensemble aggregates survive a path, never its full
  // trajectory), then aggregate in path order on this thread.
  std::vector<std::int64_t> first_exceed(cfg.paths, -1);
  std::vector<double> final_beta(cfg.paths, 0.0);
  const auto run_block = [&](std::size_t begin, std::size_t end) {
    for (std::size_t path = begin; path < end; ++path) {
      PopulationRunConfig per_path = cfg.base;
      per_path.seed = seeder.seed_for(path);
      const auto r = run_population_bouncing(per_path);
      first_exceed[path] = r.first_exceed_epoch;
      final_beta[path] = r.beta_trajectory.back();  // epochs >= stride
    }
  };
  pool.run_blocks(cfg.paths, cfg.block, run_block);
  std::size_t exceeded = 0;
  double beta_sum = 0.0;
  for (std::size_t path = 0; path < cfg.paths; ++path) {
    if (first_exceed[path] >= 0) ++exceeded;
    beta_sum += final_beta[path];
  }
  PopulationEnsembleResult res;
  res.exceed_fraction =
      static_cast<double>(exceeded) / static_cast<double>(cfg.paths);
  res.mean_final_beta = beta_sum / static_cast<double>(cfg.paths);
  if (cfg.keep_paths) res.first_exceed_epochs = std::move(first_exceed);
  return res;
}

}  // namespace leak::bouncing
