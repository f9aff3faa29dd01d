#include "src/bouncing/attack_sim.hpp"

#include <algorithm>
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

/// One tile lane's attack run in flight.
struct LaneRun {
  std::size_t run;
  std::size_t t = 1;  ///< the epoch the run plays next
  std::int64_t break_epoch = -1;
  kernel::SemiActiveByzantine byz;

  LaneRun(std::size_t r, const analytic::AnalyticConfig& model)
      : run(r), byz(model) {}
};

/// Attack lifetimes of runs [begin, end), run r drawing from the
/// (seed, r) stream, into durations[r] and break_epochs[r] (-1 when
/// beta never exceeded 1/3).  One cohort tile plays the runs, a lane
/// per run, at most `width` lanes wide; a lane whose run ends takes the
/// block's next run, and idles once none is left.  As the block drains,
/// the live lanes move into the narrowest tile that holds them, each
/// run on its own stakes and stream, so no epoch steps a width of idle
/// lanes.  Each epoch follows
/// the scalar oracle's stream order per lane: the lottery draw, then
/// one draw per live validator in index order, fused with that
/// validator's update.  When the lottery ends a run, the update its
/// lane already made is never read.
void simulate_attack_block(const AttackSimConfig& cfg,
                           const StreamSeeder& seeder, std::size_t width,
                           std::size_t begin, std::size_t end,
                           std::uint64_t* durations,
                           std::int64_t* break_epochs) {
  // Scratch is per worker thread, reused across the blocks it claims —
  // purely an allocation cache, every lane re-initialized per run.
  // leaklint: allow(D5): per-thread allocation cache only; contents fully re-initialized per run, results bit-identical across thread counts
  static thread_local kernel::CohortTile tile;
  std::size_t lanes =
      kernel::CohortTile::lanes_for(std::min(width, end - begin));
  const double n = static_cast<double>(cfg.honest_validators);
  tile.reset(cfg.honest_validators, lanes, cfg.model);
  std::vector<LaneRun> runs(lanes, LaneRun(begin, cfg.model));
  std::vector<std::uint8_t> busy(lanes, 0);
  std::size_t next = begin;
  const auto refill = [&](std::size_t lane) {
    if (next == end) return false;
    runs[lane] = LaneRun(next, cfg.model);
    tile.start(lane, seeder.seed_for(next));
    ++next;
    return true;
  };
  // reset() left every lane idle; a lane with no run to start stays so.
  std::size_t active = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    busy[lane] = refill(lane) ? 1 : 0;
    active += busy[lane];
  }
  // With the constant-beta0 lottery the continuation probability never
  // changes: the same expression, taken once.
  const double constant_continue = 1.0 - std::pow(1.0 - cfg.beta0, cfg.j);
  std::vector<std::uint64_t> lottery(lanes);
  std::vector<double> sums(lanes);
  while (active > 0) {
    tile.draw(lottery.data());
    tile.epoch(cfg.model, cfg.p0, sums.data());
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (busy[lane] == 0) continue;
      LaneRun& r = runs[lane];
      // Current stake-weighted Byzantine proportion on branch A.
      const double beta = r.byz.beta(cfg.beta0, sums[lane] / n);
      if (beta > 1.0 / 3.0 && !r.byz.ejected && r.break_epoch < 0) {
        r.break_epoch = static_cast<std::int64_t>(r.t);
      }
      // Proposer lottery: the attack needs a Byzantine proposer among
      // the first j slots of the epoch (rng.bernoulli(p_continue) on
      // the lottery draw: exactly Rng::uniform() of it).
      const double p_continue =
          cfg.stake_weighted_lottery ? 1.0 - std::pow(1.0 - beta, cfg.j)
                                     : constant_continue;
      const double lottery_u =
          static_cast<double>(lottery[lane] >> 11) * 0x1.0p-53;
      if (r.byz.ejected || !(lottery_u < p_continue)) {
        durations[r.run] = r.t - 1;
      } else {
        // The run survived epoch t (its cohort update is already made).
        r.byz.step(cfg.model, r.t);
        if (r.t < cfg.max_epochs) {
          ++r.t;
          continue;
        }
        durations[r.run] = r.t;
      }
      break_epochs[r.run] = r.break_epoch;
      if (!refill(lane)) {
        tile.stop(lane);
        busy[lane] = 0;
        --active;
      }
    }
    // No run is left to start, so the tile only drains: once its live
    // lanes fit a narrower one, they move there, runs with them.
    const std::size_t narrow = kernel::CohortTile::lanes_for(active);
    if (next == end && active > 0 && narrow < lanes) {
      tile.compact(narrow, busy.data());
      std::size_t to = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (busy[lane] != 0) runs[to++] = runs[lane];
      }
      lanes = narrow;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        busy[lane] = lane < active ? 1 : 0;
      }
    }
  }
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
  // A tile is as wide as one worker's share of the runs needs, at most
  // the widest vector, and the run block rounds up to whole tiles.  No
  // run plays an epoch when max_epochs is 0 (duration 0, no break).
  const std::size_t lanes = kernel::CohortTile::lanes_for(
      (cfg.runs + pool.threads() - 1) / pool.threads());
  const auto run_block = [&](std::size_t begin, std::size_t end) {
    simulate_attack_block(cfg, seeder, lanes, begin, end, durations.data(),
                          break_epochs.data());
  };
  if (cfg.max_epochs > 0) {
    pool.run_blocks(cfg.runs, cfg.block, run_block, lanes);
  }

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
