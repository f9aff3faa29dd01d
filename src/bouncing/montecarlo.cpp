#include "src/bouncing/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/kernel/accumulators.hpp"
#include "src/kernel/cohort.hpp"
#include "src/kernel/stake_batch.hpp"
#include "src/runner/thread_pool.hpp"
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
  const std::size_t block = runner::resolve_block(cfg.block);
  const StreamSeeder seeder(cfg.seed);
  const runner::TrialRunner pool(cfg.threads);

  if (cfg.keep_paths) {
    // Full mode: blocks write disjoint column ranges of the
    // preallocated matrix — no merge step, no per-path allocation —
    // and the summaries stream over the finished rows in path order.
    res.stakes.assign(snapshots, std::vector<double>(cfg.paths));
    std::vector<double*> rows(snapshots);
    for (std::size_t k = 0; k < snapshots; ++k) {
      rows[k] = res.stakes[k].data();
    }
    pool.run_blocks(cfg.paths, block,
                    [&](std::size_t begin, std::size_t end) {
                      // One scratch per worker thread, reused across
                      // the blocks it claims (reset() re-seeds without
                      // reallocating).  Purely an allocation cache:
                      // every value in it is re-derived from the
                      // (seed, path) stream before use, so thread
                      // placement can never reach the results
                      // (enforced by the oracle-vs-batched
                      // bit-identity suite).
                      // leaklint: allow(D5): per-thread allocation cache only; contents fully re-seeded per block, results bit-identical across thread counts
                      static thread_local kernel::BatchPaths scratch;
                      kernel::simulate_stake_block(
                          cfg.model, cfg.p0, cfg.epochs, snapshot_epochs,
                          seeder, begin, end - begin, scratch, rows.data(),
                          begin);
                    });
    for (std::size_t k = 0; k < snapshots; ++k) {
      for (std::size_t p = 0; p < cfg.paths; ++p) {
        acc.add(k, res.stakes[k][p]);
      }
    }
  } else {
    // Summary mode: each block fills a transient snapshots x block
    // slab, folded into the accumulators in ascending block order by
    // the runner's ordered reduction tree, so peak memory is
    // O(threads x block x snapshots) and every accumulator still sees
    // paths in index order.
    struct BlockSlab {
      std::size_t n_paths = 0;
      std::vector<double> data;  ///< row-major [snapshot][path in block]
    };
    struct SlabFold {
      kernel::SnapshotAccumulators* acc;
      std::size_t snapshots;
      void fold(std::size_t, std::size_t, BlockSlab&& slab) const {
        for (std::size_t k = 0; k < snapshots; ++k) {
          const double* row = slab.data.data() + k * slab.n_paths;
          for (std::size_t i = 0; i < slab.n_paths; ++i) {
            acc->add(k, row[i]);
          }
        }
      }
    };
    (void)pool.run_reduce(
        cfg.paths, block, SlabFold{&acc, snapshots},
        [&](std::size_t begin, std::size_t end) {
          BlockSlab slab;
          slab.n_paths = end - begin;
          slab.data.resize(snapshots * slab.n_paths);
          std::vector<double*> rows(snapshots);
          for (std::size_t k = 0; k < snapshots; ++k) {
            rows[k] = slab.data.data() + k * slab.n_paths;
          }
          // Same allocation-cache pattern as the keep-paths branch.
          // leaklint: allow(D5): per-thread allocation cache only; contents fully re-seeded per block, results bit-identical across thread counts
          static thread_local kernel::BatchPaths scratch;
          kernel::simulate_stake_block(cfg.model, cfg.p0, cfg.epochs,
                                       snapshot_epochs, seeder, begin,
                                       slab.n_paths, scratch, rows.data(), 0);
          return slab;
        });
  }
  acc.finalize(cfg.paths, &res.ejected_fraction, &res.capped_fraction,
               &res.prob_beta_exceeds, &res.stake_stats);
  return res;
}

PopulationRunResult run_population_bouncing(const PopulationRunConfig& cfg) {
  PopulationRunResult res;
  Rng rng(cfg.seed);
  const std::uint32_t n = cfg.honest_validators;
  // Honest cohort rides the SoA draw/update kernel: one uniform per
  // live validator in index order (exactly the scalar oracle's stream
  // consumption), then a branchless vectorized update pass.  Scratch
  // is per worker thread, reused across the runs it claims — purely an
  // allocation cache, fully re-initialized per call.
  // leaklint: allow(D5): per-thread allocation cache only; contents fully re-initialized per run, results bit-identical across thread counts
  static thread_local kernel::LeakCohort cohort;
  cohort.reset(n, cfg.model);

  // Byzantine stake per validator-equivalent; they are semi-active on
  // branch A (tracked branch), with their own floored discrete dynamics.
  double byz_stake = cfg.model.initial_stake;
  double byz_score = 0.0;
  bool byz_ejected = false;

  for (std::size_t t = 1; t <= cfg.epochs; ++t) {
    // Honest validators: iid branch assignment (Figure 8).
    cohort.draw(rng);
    cohort.update(cfg.model, cfg.p0);
    // Byzantine: semi-active from branch A's viewpoint.
    if (!byz_ejected) {
      byz_stake -= byz_score * byz_stake / cfg.model.quotient;
      const bool active = (t % 2 == 0);
      if (active) {
        byz_score = std::max(byz_score - cfg.model.score_active_decrement, 0.0);
      } else {
        byz_score += cfg.model.score_bias;
      }
      if (byz_stake <= cfg.model.ejection_threshold) {
        byz_ejected = true;
        byz_stake = 0.0;
      }
    }
    // Branch-level Byzantine proportion (Eq 23 with population averages).
    const double honest_mean = cohort.stake_sum() / static_cast<double>(n);
    const double byz = cfg.beta0 * byz_stake;
    const double denom = byz + (1.0 - cfg.beta0) * honest_mean;
    const double beta = denom > 0.0 ? byz / denom : 0.0;
    if (t % res.stride == 0) res.beta_trajectory.push_back(beta);
    if (res.first_exceed_epoch < 0 && beta > 1.0 / 3.0 && !byz_ejected) {
      res.first_exceed_epoch = static_cast<std::int64_t>(t);
    }
  }
  return res;
}

namespace {

/// Order-fed aggregate shared by the population ensemble's full and
/// summary modes: integer count plus an ascending-index double sum, so
/// both modes produce bit-identical fractions.
struct PopulationTally {
  std::size_t exceeded = 0;
  double beta_sum = 0.0;
  void add(std::int64_t first_exceed_epoch, double final_beta) {
    if (first_exceed_epoch >= 0) ++exceeded;
    beta_sum += final_beta;
  }
};

/// One path's surviving scalars.
struct PopulationOutcome {
  std::int64_t first_exceed_epoch = -1;
  double final_beta = 0.0;
};

PopulationOutcome population_outcome(const PopulationRunConfig& base,
                                     const StreamSeeder& seeder,
                                     std::size_t path) {
  PopulationRunConfig per_path = base;
  per_path.seed = seeder.seed_for(path);
  const auto r = run_population_bouncing(per_path);
  PopulationOutcome out;
  out.first_exceed_epoch = r.first_exceed_epoch;
  if (!r.beta_trajectory.empty()) out.final_beta = r.beta_trajectory.back();
  return out;
}

}  // namespace

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
  const std::size_t block = runner::resolve_block(cfg.block);

  PopulationEnsembleResult res;
  PopulationTally tally;
  if (cfg.keep_paths) {
    // Full mode: block-scheduled fan-out into preallocated outcome
    // slabs (only the two scalars the ensemble aggregates survive a
    // path, never its full trajectory), then aggregate in path order.
    res.first_exceed_epochs.assign(cfg.paths, -1);
    std::vector<double> final_beta(cfg.paths, 0.0);
    pool.run_blocks(cfg.paths, block,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t path = begin; path < end; ++path) {
                        const auto out =
                            population_outcome(cfg.base, seeder, path);
                        res.first_exceed_epochs[path] = out.first_exceed_epoch;
                        final_beta[path] = out.final_beta;
                      }
                    });
    for (std::size_t path = 0; path < cfg.paths; ++path) {
      tally.add(res.first_exceed_epochs[path], final_beta[path]);
    }
  } else {
    // Summary mode: per-block outcome slabs fold through the ordered
    // reduction tree in ascending block order — the same add() calls
    // in the same path order as full mode, without the O(paths) slabs.
    struct OutcomeFold {
      PopulationTally* tally;
      void fold(std::size_t, std::size_t,
                std::vector<PopulationOutcome>&& outcomes) const {
        for (const auto& out : outcomes) {
          tally->add(out.first_exceed_epoch, out.final_beta);
        }
      }
    };
    (void)pool.run_reduce(cfg.paths, block, OutcomeFold{&tally},
                          [&](std::size_t begin, std::size_t end) {
                            std::vector<PopulationOutcome> outcomes;
                            outcomes.reserve(end - begin);
                            for (std::size_t path = begin; path < end;
                                 ++path) {
                              outcomes.push_back(
                                  population_outcome(cfg.base, seeder, path));
                            }
                            return outcomes;
                          });
  }
  res.exceed_fraction =
      static_cast<double>(tally.exceeded) / static_cast<double>(cfg.paths);
  res.mean_final_beta = tally.beta_sum / static_cast<double>(cfg.paths);
  return res;
}

}  // namespace leak::bouncing
