#include "src/bouncing/attack_sim.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/kernel/cohort.hpp"
#include "src/runner/trial_runner.hpp"
#include "src/support/random.hpp"
#include "src/support/stats.hpp"

namespace leak::bouncing {

namespace {

/// Outcome of one attack lifetime, pure in (cfg, rng).
struct RunOutcome {
  std::uint64_t duration = 0;
  /// Epoch when beta first exceeded 1/3; -1 when it never did.
  std::int64_t break_epoch = -1;
};

RunOutcome simulate_attack_run(const AttackSimConfig& cfg, Rng rng) {
  RunOutcome out;
  const std::size_t n = cfg.honest_validators;
  // Honest stake/score from branch A's viewpoint rides the SoA
  // draw/update kernel.  Each epoch consumes the run's single RNG
  // stream exactly as the scalar oracle does: the lottery draw, then one
  // draw per live validator in index order.  Both are drawn up front,
  // in that order, in one pass that also sums the stakes as they stand
  // (the lottery's probability needs that sum); when the lottery ends
  // the run, the lane draws are never used.  The update pass is
  // branchless over the lanes.  Scratch is per worker thread, reused
  // across the runs it claims — purely an allocation cache, fully
  // re-initialized per run.
  // leaklint: allow(D5): per-thread allocation cache only; contents fully re-initialized per run, results bit-identical across thread counts
  static thread_local kernel::LeakCohort cohort;
  cohort.reset(n, cfg.model);
  kernel::SemiActiveByzantine byz(cfg.model);

  for (std::size_t t = 1; t <= cfg.max_epochs; ++t) {
    const double lottery = rng.uniform();
    // Current stake-weighted Byzantine proportion on branch A.
    const double honest_mean = cohort.draw(rng) / static_cast<double>(n);
    const double beta = byz.beta(cfg.beta0, honest_mean);
    if (beta > 1.0 / 3.0 && !byz.ejected && out.break_epoch < 0) {
      out.break_epoch = static_cast<std::int64_t>(t);
    }

    // Proposer lottery: the attack needs a Byzantine proposer among
    // the first j slots of the epoch (rng.bernoulli(p_continue) on the
    // lottery value drawn above).
    const double lottery_beta = cfg.stake_weighted_lottery ? beta : cfg.beta0;
    const double p_continue = 1.0 - std::pow(1.0 - lottery_beta, cfg.j);
    if (byz.ejected || !(lottery < p_continue)) {
      out.duration = t - 1;
      break;
    }
    out.duration = t;

    // One epoch of Figure 8 dynamics on the lanes drawn above.
    cohort.update(cfg.model, cfg.p0);
    byz.step(cfg.model, t);
  }
  return out;
}

}  // namespace

AttackSimResult run_attack_sim(const AttackSimConfig& cfg) {
  if (cfg.runs == 0 || cfg.honest_validators == 0) {
    throw std::invalid_argument("run_attack_sim: empty configuration");
  }
  // Run i always draws from the (seed, i) stream, so the result is
  // bit-identical for every (block, threads) combination.
  const StreamSeeder seeder(cfg.seed);
  const runner::TrialRunner pool(cfg.threads);
  // Block-scheduled fan-out into preallocated per-run slabs (no merge
  // step), then aggregate in run order on this thread.
  std::vector<std::uint64_t> durations(cfg.runs, 0);
  std::vector<std::int64_t> break_epochs(cfg.runs, -1);
  const auto run_block = [&](std::size_t begin, std::size_t end) {
    for (std::size_t run = begin; run < end; ++run) {
      const auto out = simulate_attack_run(cfg, seeder.stream(run));
      durations[run] = out.duration;
      break_epochs[run] = out.break_epoch;
    }
  };
  pool.run_blocks(cfg.runs, cfg.block, run_block);

  AttackSimResult res;
  std::size_t broken = 0;
  for (const std::int64_t epoch : break_epochs) {
    if (epoch < 0) continue;
    ++broken;
    if (cfg.keep_runs) {
      res.break_epochs.push_back(static_cast<std::uint64_t>(epoch));
    }
  }
  res.prob_threshold_broken =
      static_cast<double>(broken) / static_cast<double>(cfg.runs);
  std::vector<double> d(durations.begin(), durations.end());
  RunningStats stats;
  for (const double x : d) stats.add(x);
  res.mean_duration = stats.mean();
  res.median_duration = quantile(d, 0.5);
  res.p99_duration = quantile(std::move(d), 0.99);
  if (cfg.keep_runs) res.durations = std::move(durations);
  return res;
}

double expected_duration_constant_beta(double beta0, int j) {
  // Duration ~ Geometric(success = attack dies) with per-epoch death
  // probability (1-beta0)^j; expectation = p_continue / p_die.
  const double p_continue = 1.0 - std::pow(1.0 - beta0, j);
  const double p_die = 1.0 - p_continue;
  if (p_die <= 0.0) return std::numeric_limits<double>::infinity();
  return p_continue / p_die;
}

}  // namespace leak::bouncing
