#include "src/bouncing/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/kernel/accumulators.hpp"
#include "src/kernel/cohort.hpp"
#include "src/kernel/stake_batch.hpp"
#include "src/runner/trial_runner.hpp"

namespace leak::bouncing {

namespace {

void validate_grid(const McConfig& cfg,
                   const std::vector<std::size_t>& snapshot_epochs) {
  // A path records one value per grid epoch, so the kernel's grid check
  // (strictly increasing, within [1, epochs]) runs here before the
  // fan-out, and a grid must name at least one epoch.
  if (snapshot_epochs.empty()) {
    throw std::invalid_argument("run_bouncing_mc: empty snapshot grid");
  }
  kernel::check_snapshot_grid(snapshot_epochs, cfg.epochs);
  if (cfg.branches < 2) {
    throw std::invalid_argument("run_bouncing_mc: branches must be >= 2");
  }
}

void check_population(const PopulationRunConfig& cfg, const char* who) {
  if (cfg.honest_validators == 0) {
    throw std::invalid_argument(std::string(who) + ": no honest validators");
  }
}

/// Population runs on seeds[0, count) (count <= the tile's lanes), one
/// tile lane each, into out[0, count).  All lanes play the same epochs,
/// and the Byzantine dynamics draw nothing, so one SemiActiveByzantine
/// serves every lane.
void simulate_population_tile(const PopulationRunConfig& cfg,
                              const std::uint64_t* seeds, std::size_t count,
                              PopulationRunResult* out) {
  // Scratch is per worker thread, reused across the tiles it claims —
  // purely an allocation cache, fully re-initialized per tile.
  // leaklint: allow(D5): per-thread allocation cache only; contents fully re-initialized per tile, results bit-identical across thread counts
  static thread_local kernel::CohortTile tile;
  const std::size_t lanes = kernel::CohortTile::lanes_for(count);
  tile.reset(cfg.honest_validators, lanes, cfg.model);
  for (std::size_t lane = 0; lane < count; ++lane) {
    tile.start(lane, seeds[lane]);
    out[lane] = PopulationRunResult{};
    // One sample per stride epochs: sized once, not grown per sample.
    out[lane].beta_trajectory.reserve(cfg.epochs / out[lane].stride);
  }
  kernel::SemiActiveByzantine byz(cfg.model);  // tracked branch A
  std::vector<double> sums(lanes);
  const double n = static_cast<double>(cfg.honest_validators);

  // Branch-level Byzantine proportion at the end of epoch t (Eq 23 with
  // population averages), from each lane's honest stake sum then.
  const auto observe = [&](std::size_t t) {
    for (std::size_t lane = 0; lane < count; ++lane) {
      PopulationRunResult& res = out[lane];
      const double beta = byz.beta(cfg.beta0, sums[lane] / n);
      if (t % res.stride == 0) res.beta_trajectory.push_back(beta);
      if (res.first_exceed_epoch < 0 && beta > 1.0 / 3.0 && !byz.ejected) {
        res.first_exceed_epoch = static_cast<std::int64_t>(t);
      }
    }
  };
  for (std::size_t t = 1; t <= cfg.epochs; ++t) {
    // Honest validators: iid branch assignment (Figure 8).  The epoch
    // also sums the stakes epoch t - 1 left, which are observed before
    // the Byzantine update of epoch t.
    tile.epoch(cfg.model, cfg.p0, sums.data());
    if (t > 1) observe(t - 1);
    byz.step(cfg.model, t);
  }
  if (cfg.epochs > 0) {
    tile.stake_sums(sums.data());
    observe(cfg.epochs);
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

void run_population_tiles(const PopulationRunConfig& cfg,
                          const std::uint64_t* seeds, std::size_t count,
                          PopulationRunResult* out) {
  check_population(cfg, "run_population_tiles");
  const std::size_t widest = kernel::CohortTile::max_lanes();
  for (std::size_t begin = 0; begin < count; begin += widest) {
    simulate_population_tile(cfg, seeds + begin,
                             std::min(widest, count - begin), out + begin);
  }
}

PopulationEnsembleResult run_population_ensemble(
    const PopulationEnsembleConfig& cfg) {
  if (cfg.paths == 0) {
    throw std::invalid_argument("run_population_ensemble: no paths");
  }
  check_population(cfg.base, "run_population_ensemble");
  if (cfg.base.epochs < kBetaStride) {
    throw std::invalid_argument(
        "run_population_ensemble: epochs below the beta sampling stride");
  }
  const StreamSeeder seeder(cfg.base.seed);
  const runner::TrialRunner pool(cfg.threads);

  // Block-scheduled fan-out into preallocated outcome slabs (only the
  // two scalars the ensemble aggregates survive a path), then aggregate
  // in path order on this thread.  Path i runs on the seed of stream
  // (base.seed, i).  A tile is as wide as one worker's share of the
  // paths needs, at most the widest vector, and the path block rounds
  // up to whole tiles.
  const std::size_t lanes = kernel::CohortTile::lanes_for(
      (cfg.paths + pool.threads() - 1) / pool.threads());
  std::vector<std::int64_t> first_exceed(cfg.paths, -1);
  std::vector<double> final_beta(cfg.paths, 0.0);
  const auto run_block = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint64_t> seeds(end - begin);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      seeds[i] = seeder.seed_for(begin + i);
    }
    std::vector<PopulationRunResult> runs(seeds.size());
    run_population_tiles(cfg.base, seeds.data(), seeds.size(), runs.data());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      first_exceed[begin + i] = runs[i].first_exceed_epoch;
      // epochs >= stride, so every run has a final sample.
      final_beta[begin + i] = runs[i].beta_trajectory.back();
    }
  };
  pool.run_blocks(cfg.paths, cfg.block, run_block, lanes);
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
