// Verbatim pre-rollout scalar driver implementations.  See the header
// for the contract; the code below is intentionally kept byte-for-byte
// close to the last scalar revision of each driver, so the batched
// kernels always have a fixed reference to be measured against.
#include "tests/oracles/scalar_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/analytic/duty_cycle.hpp"
#include "src/chain/registry.hpp"
#include "src/penalties/inactivity.hpp"
#include "src/penalties/spec_config.hpp"
#include "src/runner/thread_pool.hpp"
#include "src/runner/trial_runner.hpp"
#include "src/support/random.hpp"
#include "src/support/stats.hpp"

namespace leak::oracle {

namespace {

using bouncing::AttackSimConfig;
using bouncing::McConfig;
using bouncing::McResult;
using bouncing::PopulationRunConfig;
using sim::OutageWindow;
using sim::PartitionSimConfig;
using sim::PartitionSimResult;
using sim::RecoveryOutcome;
using sim::Strategy;

// --- scalar Figure 8 Monte Carlo ---------------------------------------

/// One path of the Figure 8 dynamics as a pure function of its RNG
/// stream: returns the path's stake at each snapshot epoch (0 once
/// ejected).  All derived statistics are computed at merge time, so a
/// path depends only on (cfg, snapshot grid, rng).
std::vector<double> simulate_path(const McConfig& cfg,
                                  const std::vector<std::size_t>& snaps,
                                  Rng rng) {
  std::vector<double> at_snap;
  at_snap.reserve(snaps.size());
  double stake = cfg.model.initial_stake;
  double score = 0.0;
  bool ejected = false;
  std::size_t next_snap = 0;
  for (std::size_t t = 1; t <= cfg.epochs && next_snap < snaps.size(); ++t) {
    if (!ejected) {
      // Eq 2 penalty with previous score, then Eq 1 update (floored).
      stake -= score * stake / cfg.model.quotient;
      const bool active = rng.bernoulli(cfg.p0);
      if (active) {
        score = std::max(score - cfg.model.score_active_decrement, 0.0);
      } else {
        score += cfg.model.score_bias;
      }
      if (stake <= cfg.model.ejection_threshold) {
        ejected = true;
        stake = 0.0;
      }
    }
    if (t == snaps[next_snap]) {
      at_snap.push_back(stake);
      ++next_snap;
    }
  }
  return at_snap;
}

void validate_grid(const McConfig& cfg,
                   const std::vector<std::size_t>& snapshot_epochs) {
  if (snapshot_epochs.empty() ||
      !std::is_sorted(snapshot_epochs.begin(), snapshot_epochs.end()) ||
      std::adjacent_find(snapshot_epochs.begin(), snapshot_epochs.end()) !=
          snapshot_epochs.end() ||
      snapshot_epochs.back() > cfg.epochs) {
    throw std::invalid_argument("run_bouncing_mc_scalar: bad snapshot grid");
  }
  if (cfg.branches < 2) {
    throw std::invalid_argument(
        "run_bouncing_mc_scalar: branches must be >= 2");
  }
}

/// The pre-rollout streaming per-snapshot reduction.  Each snapshot's
/// accumulators are fed their paths in ascending path order (the
/// accumulators are order-sensitive in floating point).
class SnapshotAccumulators {
 public:
  SnapshotAccumulators(const McConfig& cfg,
                       const std::vector<std::size_t>& snaps)
      : initial_stake_(cfg.model.initial_stake),
        ejected_(snaps.size(), 0),
        capped_(snaps.size(), 0),
        exceeds_(snaps.size(), 0),
        stats_(snaps.size()) {
    threshold_.resize(snaps.size());
    for (std::size_t k = 0; k < snaps.size(); ++k) {
      threshold_[k] = analytic::multibranch_exceed_threshold(
          cfg.branches, cfg.beta0, static_cast<double>(snaps[k]), cfg.model);
    }
  }

  void add(std::size_t k, double stake) {
    if (stake == 0.0) ++ejected_[k];
    if (stake >= initial_stake_) ++capped_[k];
    if (stake < threshold_[k]) ++exceeds_[k];
    stats_[k].add(stake);
  }

  void finalize(std::size_t n_paths, McResult* res) {
    const auto snapshots = stats_.size();
    const double n = static_cast<double>(n_paths);
    res->ejected_fraction.resize(snapshots);
    res->capped_fraction.resize(snapshots);
    res->prob_beta_exceeds.resize(snapshots);
    for (std::size_t k = 0; k < snapshots; ++k) {
      res->ejected_fraction[k] = static_cast<double>(ejected_[k]) / n;
      res->capped_fraction[k] = static_cast<double>(capped_[k]) / n;
      res->prob_beta_exceeds[k] = static_cast<double>(exceeds_[k]) / n;
    }
    res->stake_stats = std::move(stats_);
  }

 private:
  double initial_stake_;
  std::vector<double> threshold_;
  std::vector<std::size_t> ejected_;
  std::vector<std::size_t> capped_;
  std::vector<std::size_t> exceeds_;
  std::vector<RunningStats> stats_;
};

// --- scalar attack lifetime --------------------------------------------

/// Outcome of one attack lifetime, pure in (cfg, rng).
struct RunOutcome {
  std::uint64_t duration = 0;
  /// Epoch when beta first exceeded 1/3; -1 when it never did.
  std::int64_t break_epoch = -1;
};

RunOutcome simulate_attack_run(const AttackSimConfig& cfg, Rng rng) {
  RunOutcome out;
  const std::size_t n = cfg.honest_validators;
  // Honest stake/score from branch A's viewpoint; Byzantine validators
  // are semi-active on A (active every other epoch).
  std::vector<double> stake(n, cfg.model.initial_stake);
  std::vector<double> score(n, 0.0);
  std::vector<std::uint8_t> ejected(n, 0);
  double byz_stake = cfg.model.initial_stake;
  double byz_score = 0.0;
  bool byz_ejected = false;

  for (std::size_t t = 1; t <= cfg.max_epochs; ++t) {
    // Current stake-weighted Byzantine proportion on branch A.
    double honest_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) honest_total += stake[i];
    const double honest_mean = honest_total / static_cast<double>(n);
    const double byz_mass = cfg.beta0 * byz_stake;
    const double denom = byz_mass + (1.0 - cfg.beta0) * honest_mean;
    const double beta = denom > 0.0 ? byz_mass / denom : 0.0;
    if (beta > 1.0 / 3.0 && !byz_ejected && out.break_epoch < 0) {
      out.break_epoch = static_cast<std::int64_t>(t);
    }

    // Proposer lottery: the attack needs a Byzantine proposer among
    // the first j slots of the epoch.
    const double lottery_beta = cfg.stake_weighted_lottery ? beta : cfg.beta0;
    const double p_continue = 1.0 - std::pow(1.0 - lottery_beta, cfg.j);
    if (byz_ejected || !rng.bernoulli(p_continue)) {
      out.duration = t - 1;
      break;
    }
    out.duration = t;

    // One epoch of Figure 8 dynamics.
    for (std::size_t i = 0; i < n; ++i) {
      if (ejected[i] != 0) continue;
      stake[i] -= score[i] * stake[i] / cfg.model.quotient;
      const bool active = rng.bernoulli(cfg.p0);
      if (active) {
        score[i] = std::max(score[i] - cfg.model.score_active_decrement, 0.0);
      } else {
        score[i] += cfg.model.score_bias;
      }
      if (stake[i] <= cfg.model.ejection_threshold) {
        ejected[i] = 1;
        stake[i] = 0.0;
      }
    }
    if (!byz_ejected) {
      byz_stake -= byz_score * byz_stake / cfg.model.quotient;
      if (t % 2 == 0) {
        byz_score = std::max(byz_score - cfg.model.score_active_decrement, 0.0);
      } else {
        byz_score += cfg.model.score_bias;
      }
      if (byz_stake <= cfg.model.ejection_threshold) {
        byz_ejected = true;
        byz_stake = 0.0;
      }
    }
  }
  return out;
}

// --- scalar partition Monte Carlo --------------------------------------

constexpr double kGweiPerEth = 1e9;

/// Does the Byzantine stake count toward the active side of the branch's
/// ratio (Eqs 8 and 10 count it; Eq 5 has none)?
bool byzantine_counts_active(Strategy s) {
  return s == Strategy::kSlashable || s == Strategy::kSemiActiveFinalize;
}

void validate(const PartitionSimConfig& cfg) {
  if (cfg.n_validators == 0) {
    throw std::invalid_argument("run_partition_trials_scalar: no validators");
  }
  if (cfg.beta0 < 0.0 || cfg.beta0 >= 1.0 || cfg.p0 < 0.0 || cfg.p0 > 1.0) {
    throw std::invalid_argument("run_partition_trials_scalar: bad proportions");
  }
  if (cfg.branches < 2 || cfg.branches > cfg.n_validators) {
    throw std::invalid_argument("run_partition_trials_scalar: bad branches");
  }
  if (cfg.branches > 2 && cfg.p0 != 0.5) {
    throw std::invalid_argument(
        "run_partition_trials_scalar: p0 only shapes the two-branch split");
  }
  if (!cfg.windows.empty()) {
    if (cfg.windows.size() != cfg.branches - 1) {
      throw std::invalid_argument(
          "run_partition_trials_scalar: bad window schedule");
    }
    for (const sim::BranchWindow& w : cfg.windows) {
      if (w.open_epoch < 1 ||
          (w.heal_epoch != 0 && w.heal_epoch <= w.open_epoch)) {
        throw std::invalid_argument(
            "run_partition_trials_scalar: bad branch window");
      }
    }
  }
  for (const OutageWindow& o : cfg.outages) {
    if (o.span_epochs == 0 || o.cohort <= 0.0 || o.cohort > 1.0) {
      throw std::invalid_argument("run_partition_trials_scalar: bad outage");
    }
  }
}

/// Byzantine validator count implied by the configured proportion.
std::uint32_t byzantine_count(const PartitionSimConfig& cfg) {
  return static_cast<std::uint32_t>(
      std::llround(cfg.beta0 * static_cast<double>(cfg.n_validators)));
}

/// Verbatim pre-fusion core: per-epoch activity via the branchy
/// per-validator switch, metrics via a separate total_active_balance
/// sweep followed by the classification loop.
PartitionSimResult run_partition_core(
    const PartitionSimConfig& cfg, std::uint32_t n_byz,
    const std::vector<std::uint8_t>& branch_of_honest) {
  const auto n = cfg.n_validators;
  const auto n_honest = n - n_byz;
  const auto k = cfg.branches;

  PartitionSimResult res;
  res.branch.resize(k);
  res.n_byzantine = n_byz;
  res.n_honest_per_branch.assign(k, 0);
  for (const std::uint8_t b : branch_of_honest) {
    ++res.n_honest_per_branch[b];
  }

  std::vector<std::size_t> open_at(k, 1);
  std::vector<std::size_t> heal_at(k, 0);
  if (!cfg.windows.empty()) {
    for (std::uint32_t b = 1; b < k; ++b) {
      open_at[b] = cfg.windows[b - 1].open_epoch;
      heal_at[b] = cfg.windows[b - 1].heal_epoch;
    }
  }
  bool healing = false;
  for (std::uint32_t b = 1; b < k; ++b) healing = healing || heal_at[b] > 0;
  std::vector<std::uint8_t> healed(k, 0);
  std::vector<std::uint8_t> opened(k, 0);
  opened[0] = 1;  // the canonical branch is always open

  penalties::SpecConfig spec = cfg.spec;
  if (healing) spec.inactivity_penalty_tracks_score = true;
  std::vector<chain::ValidatorRegistry> registry(
      k, chain::ValidatorRegistry{n});
  std::vector<penalties::InactivityTracker> tracker;
  tracker.reserve(k);
  for (std::uint32_t b = 0; b < k; ++b) {
    tracker.emplace_back(registry[b], spec);
  }

  const auto is_byz = [&](std::uint32_t i) { return i >= n_honest; };

  bool cascading = !cfg.outages.empty();
  for (std::uint32_t b = 1; b < k; ++b) {
    cascading = cascading || open_at[b] > 1;
  }

  std::vector<std::uint8_t> leak_over(k, 0);
  std::int64_t leak_end_epoch = -1;
  std::vector<std::int64_t> sm_streak_start(k, -1);

  std::vector<RecoveryOutcome> pending(k);
  std::vector<std::uint32_t> representative(k, n);  // n = no member
  for (std::uint32_t i = 0; i < n_honest; ++i) {
    const std::uint8_t b = branch_of_honest[i];
    if (representative[b] == n) representative[b] = i;
  }
  for (std::uint32_t b = 0; b < k; ++b) {
    pending[b].from_branch = b;
    pending[b].class_size = res.n_honest_per_branch[b];
  }
  bool recovery_totals_recorded = false;
  Gwei recovery_total_start{};

  std::vector<std::uint8_t> active(n, 0);

  for (std::size_t t = 1; t <= cfg.max_epochs; ++t) {
    const Epoch epoch{t};
    for (std::uint32_t b = 1; b < k; ++b) {
      if (opened[b] == 0 && t >= open_at[b]) {
        opened[b] = 1;
        if (t > 1) registry[b] = registry[0];
      }
    }
    if (healing) {
      for (std::uint32_t b = 1; b < k; ++b) {
        if (heal_at[b] == 0) continue;
        if (healed[b] == 0 && t >= heal_at[b]) {
          healed[b] = 1;
          res.branch[b].healed_epoch = static_cast<std::int64_t>(t);
          pending[b].healed_epoch = static_cast<std::int64_t>(t);
          if (std::all_of(healed.begin() + 1, healed.end(),
                          [](std::uint8_t h) { return h != 0; })) {
            res.heal_complete_epoch = static_cast<std::int64_t>(t);
          }
        }
      }
    }
    const bool all_healed = healing && res.heal_complete_epoch >= 0;

    std::uint32_t outage_cut = 0;
    for (const OutageWindow& o : cfg.outages) {
      if (t >= o.from_epoch && t < o.from_epoch + o.span_epochs) {
        outage_cut = std::max(
            outage_cut,
            static_cast<std::uint32_t>(std::llround(
                o.cohort * static_cast<double>(n_honest))));
      }
    }

    for (std::uint32_t b = 0; b < k; ++b) {
      if (opened[b] == 0) continue;
      if (leak_over[b] != 0) continue;
      if (b > 0 && healed[b] != 0) continue;
      if (b == 0 && res.recovery_complete_epoch >= 0) continue;
      auto& reg = registry[b];
      auto& out = res.branch[b];
      const bool recovering = b == 0 && leak_end_epoch >= 0;

      if (recovering) {
        for (std::uint32_t c = 1; c < k; ++c) {
          auto& rec = pending[c];
          if (rec.return_epoch >= 0 || rec.ejected_before_return) continue;
          if (healed[c] == 0 || representative[c] == n) continue;
          const ValidatorIndex v{representative[c]};
          if (!reg.is_active(v, epoch)) {
            rec.ejected_before_return = true;
            continue;
          }
          rec.return_epoch = static_cast<std::int64_t>(t);
          rec.score_at_return =
              static_cast<double>(reg.at(v).inactivity_score);
          rec.stake_at_return_eth =
              static_cast<double>(reg.at(v).balance.value()) / kGweiPerEth;
        }
        if (!recovery_totals_recorded) {
          recovery_totals_recorded = true;
          for (std::uint32_t i = 0; i < n; ++i) {
            recovery_total_start += reg.at(ValidatorIndex{i}).balance;
          }
        }
      }

      // Activity on branch b this epoch: the pre-rollout per-validator
      // branchy switch.
      for (std::uint32_t i = 0; i < n; ++i) {
        if (is_byz(i)) {
          if (recovering) {
            active[i] = true;  // the partition is over; everyone attests
            continue;
          }
          switch (cfg.strategy) {
            case Strategy::kNone:
              active[i] = false;
              break;
            case Strategy::kSlashable:
              active[i] = true;
              break;
            case Strategy::kSemiActiveFinalize:
            case Strategy::kSemiActiveOverthrow:
              active[i] = (t % k == b);
              break;
          }
        } else if (i < outage_cut) {
          active[i] = false;  // scheduled outage: sits out everywhere
        } else {
          const std::uint8_t bi = branch_of_honest[i];
          active[i] = bi == b ||
                      (b == 0 && (healed[bi] != 0 || opened[bi] == 0));
        }
      }

      const Epoch last_finalized =
          recovering ? Epoch{t - 1} : Epoch{0};
      const auto report =
          tracker[b].process_epoch(epoch, last_finalized, active);
      if (out.honest_ejection_epoch < 0) {
        for (const ValidatorIndex v : report.ejected) {
          if (!is_byz(v.value())) {
            out.honest_ejection_epoch = static_cast<std::int64_t>(t);
            break;
          }
        }
      }

      // Branch metrics: separate total sweep, then classification — the
      // op order the fused production pass must reproduce exactly.
      const Gwei total = reg.total_active_balance(epoch);
      Gwei active_side{};
      Gwei byz_side{};
      for (std::uint32_t i = 0; i < n; ++i) {
        const ValidatorIndex v{i};
        if (!reg.is_active(v, epoch)) continue;
        const Gwei bal = reg.at(v).balance;
        if (is_byz(i)) {
          byz_side += bal;
          if (recovering || byzantine_counts_active(cfg.strategy)) {
            active_side += bal;
          }
        } else if (i >= outage_cut) {
          const std::uint8_t bi = branch_of_honest[i];
          if (bi == b || (b == 0 && (healed[bi] != 0 || opened[bi] == 0))) {
            active_side += bal;
          }
        }
      }
      const double beta =
          total.value() > 0
              ? static_cast<double>(byz_side.value()) /
                    static_cast<double>(total.value())
              : 0.0;
      const double ratio =
          total.value() > 0
              ? static_cast<double>(active_side.value()) /
                    static_cast<double>(total.value())
              : 0.0;
      if (beta > out.beta_peak) {
        out.beta_peak = beta;
        out.beta_peak_epoch = static_cast<std::int64_t>(t);
      }
      if (t % cfg.trajectory_stride == 0) {
        out.ratio_trajectory.push_back(ratio);
        out.beta_trajectory.push_back(beta);
      }

      const bool supermajority =
          3 * static_cast<__uint128_t>(active_side.value()) >
          2 * static_cast<__uint128_t>(total.value());
      if (supermajority && out.supermajority_epoch < 0) {
        out.supermajority_epoch = static_cast<std::int64_t>(t);
      }
      const bool wants_finalize =
          cfg.strategy != Strategy::kSemiActiveOverthrow ||
          (b == 0 && all_healed);
      if (supermajority) {
        if (sm_streak_start[b] < 0) {
          sm_streak_start[b] = static_cast<std::int64_t>(t);
        }
      } else {
        sm_streak_start[b] = -1;
        if (b == 0 && leak_end_epoch >= 0) {
          leak_end_epoch = -1;
          recovery_totals_recorded = false;
          recovery_total_start = Gwei{};
        }
      }
      const bool finalizes =
          wants_finalize && sm_streak_start[b] >= 0 &&
          t > static_cast<std::size_t>(sm_streak_start[b]);
      if (b == 0 && (cascading || healing)) {
        if (finalizes && leak_end_epoch < 0) {
          if (out.finalization_epoch < 0) {
            out.finalization_epoch = static_cast<std::int64_t>(t);
          }
          leak_end_epoch = static_cast<std::int64_t>(t);
        }
      } else if (finalizes) {
        out.finalization_epoch = static_cast<std::int64_t>(t);
        leak_over[b] = 1;
      }

      if (recovering) {
        for (std::uint32_t c = 1; c < k; ++c) {
          auto& rec = pending[c];
          if (rec.return_epoch < 0 || rec.recovery_epochs >= 0) continue;
          const ValidatorIndex v{representative[c]};
          const bool done = !reg.is_active(v, Epoch{t + 1}) ||
                            reg.at(v).inactivity_score == 0;
          if (done) {
            rec.recovery_epochs =
                static_cast<std::int64_t>(t) - rec.return_epoch + 1;
            rec.residual_loss_eth =
                rec.stake_at_return_eth -
                static_cast<double>(reg.at(v).balance.value()) / kGweiPerEth;
          }
        }
        if (all_healed && res.recovery_complete_epoch < 0) {
          bool all_zero = true;
          for (std::uint32_t i = 0; i < n && all_zero; ++i) {
            const ValidatorIndex v{i};
            if (reg.is_active(v, Epoch{t + 1}) &&
                reg.at(v).inactivity_score > 0) {
              all_zero = false;
            }
          }
          if (all_zero) {
            res.recovery_complete_epoch = static_cast<std::int64_t>(t);
          }
        }
      }
    }

    bool all_done = true;
    for (std::uint32_t b = 0; b < k; ++b) {
      if (b == 0) {
        const bool done0 = healing ? res.recovery_complete_epoch >= 0
                                   : leak_over[0] != 0;
        all_done = all_done && done0;
      } else {
        all_done = all_done && (leak_over[b] != 0 || healed[b] != 0);
      }
    }
    if (all_done) break;
  }

  if (recovery_totals_recorded) {
    Gwei now{};
    for (std::uint32_t i = 0; i < n; ++i) {
      now += registry[0].at(ValidatorIndex{i}).balance;
    }
    res.residual_loss_total_eth =
        static_cast<double>(recovery_total_start.value() - now.value()) /
        kGweiPerEth;
  }
  for (std::uint32_t b = 1; b < k; ++b) {
    if (pending[b].healed_epoch >= 0 || pending[b].ejected_before_return) {
      res.recovery.push_back(pending[b]);
    }
  }

  std::vector<std::int64_t> finals;
  for (const auto& br : res.branch) {
    if (br.finalization_epoch >= 0) finals.push_back(br.finalization_epoch);
  }
  if (finals.size() >= 2) {
    std::sort(finals.begin(), finals.end());
    res.conflicting_finalization_epoch = finals[1];
  }
  res.beta_exceeded_third_both =
      std::all_of(res.branch.begin(), res.branch.end(),
                  [](const sim::BranchOutcome& br) {
                    return br.beta_peak > 1.0 / 3.0;
                  });
  return res;
}

}  // namespace

McResult run_bouncing_mc_scalar(
    const McConfig& cfg, const std::vector<std::size_t>& snapshot_epochs) {
  validate_grid(cfg, snapshot_epochs);
  McResult res;
  res.epochs = snapshot_epochs;
  res.stakes.assign(snapshot_epochs.size(), {});
  for (auto& v : res.stakes) v.reserve(cfg.paths);

  // Fan the paths across the pool; each draws from its own counter
  // stream, so the result is independent of the thread count.
  const StreamSeeder seeder(cfg.seed);
  const runner::TrialRunner pool(cfg.threads);
  const auto per_path = pool.run(cfg.paths, [&](std::size_t path) {
    return simulate_path(cfg, snapshot_epochs, seeder.stream(path));
  });

  // Merge in path order.
  for (const auto& at_snap : per_path) {
    for (std::size_t k = 0; k < snapshot_epochs.size(); ++k) {
      res.stakes[k].push_back(at_snap[k]);
    }
  }
  SnapshotAccumulators acc(cfg, snapshot_epochs);
  for (std::size_t k = 0; k < snapshot_epochs.size(); ++k) {
    for (std::size_t p = 0; p < cfg.paths; ++p) {
      acc.add(k, res.stakes[k][p]);
    }
  }
  acc.finalize(cfg.paths, &res);
  return res;
}

bouncing::AttackSimResult run_attack_sim_scalar(const AttackSimConfig& cfg) {
  if (cfg.runs == 0 || cfg.honest_validators == 0) {
    throw std::invalid_argument("run_attack_sim_scalar: empty configuration");
  }
  const StreamSeeder seeder(cfg.seed);
  const runner::TrialRunner pool(cfg.threads);
  bouncing::AttackSimResult res;
  res.durations.assign(cfg.runs, 0);
  std::vector<std::int64_t> break_epochs(cfg.runs, -1);
  pool.run_blocks(cfg.runs, runner::resolve_block(cfg.block),
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t run = begin; run < end; ++run) {
                      const auto out =
                          simulate_attack_run(cfg, seeder.stream(run));
                      res.durations[run] = out.duration;
                      break_epochs[run] = out.break_epoch;
                    }
                  });

  // Compact the successful runs in run order.
  std::size_t broken = 0;
  for (const std::int64_t epoch : break_epochs) {
    if (epoch >= 0) {
      res.break_epochs.push_back(static_cast<std::uint64_t>(epoch));
      ++broken;
    }
  }

  res.prob_threshold_broken =
      static_cast<double>(broken) / static_cast<double>(cfg.runs);
  std::vector<double> d(res.durations.begin(), res.durations.end());
  RunningStats st;
  for (double x : d) st.add(x);
  res.mean_duration = st.mean();
  res.median_duration = quantile(d, 0.5);
  res.p99_duration = quantile(d, 0.99);
  return res;
}

bouncing::PopulationRunResult run_population_bouncing_scalar(
    const PopulationRunConfig& cfg) {
  bouncing::PopulationRunResult res;
  Rng rng(cfg.seed);
  const std::uint32_t n = cfg.honest_validators;
  std::vector<double> stake(n, cfg.model.initial_stake);
  std::vector<double> score(n, 0.0);
  std::vector<std::uint8_t> ejected(n, 0);

  double byz_stake = cfg.model.initial_stake;
  double byz_score = 0.0;
  bool byz_ejected = false;

  for (std::size_t t = 1; t <= cfg.epochs; ++t) {
    // Honest validators: iid branch assignment (Figure 8).
    for (std::uint32_t i = 0; i < n; ++i) {
      if (ejected[i] != 0) continue;
      stake[i] -= score[i] * stake[i] / cfg.model.quotient;
      const bool active = rng.bernoulli(cfg.p0);
      if (active) {
        score[i] = std::max(score[i] - cfg.model.score_active_decrement, 0.0);
      } else {
        score[i] += cfg.model.score_bias;
      }
      if (stake[i] <= cfg.model.ejection_threshold) {
        ejected[i] = 1;
        stake[i] = 0.0;
      }
    }
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
    double honest_total = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) honest_total += stake[i];
    const double honest_mean = honest_total / static_cast<double>(n);
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

bouncing::PopulationEnsembleResult run_population_ensemble_scalar(
    const bouncing::PopulationEnsembleConfig& cfg) {
  if (cfg.paths == 0) {
    throw std::invalid_argument("run_population_ensemble_scalar: no paths");
  }
  const StreamSeeder seeder(cfg.base.seed);
  const runner::TrialRunner pool(cfg.threads);

  bouncing::PopulationEnsembleResult res;
  res.first_exceed_epochs.assign(cfg.paths, -1);
  std::vector<double> final_beta(cfg.paths, 0.0);
  pool.run_blocks(cfg.paths, runner::resolve_block(cfg.block),
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t path = begin; path < end; ++path) {
                      PopulationRunConfig per_path = cfg.base;
                      per_path.seed = seeder.seed_for(path);
                      const auto r = run_population_bouncing_scalar(per_path);
                      res.first_exceed_epochs[path] = r.first_exceed_epoch;
                      if (!r.beta_trajectory.empty()) {
                        final_beta[path] = r.beta_trajectory.back();
                      }
                    }
                  });

  // Aggregate in path order.
  std::size_t exceeded = 0;
  double beta_sum = 0.0;
  for (std::size_t path = 0; path < cfg.paths; ++path) {
    if (res.first_exceed_epochs[path] >= 0) ++exceeded;
    beta_sum += final_beta[path];
  }
  res.exceed_fraction =
      static_cast<double>(exceeded) / static_cast<double>(cfg.paths);
  res.mean_final_beta = beta_sum / static_cast<double>(cfg.paths);
  return res;
}

sim::PartitionTrialsResult run_partition_trials_scalar(
    const sim::PartitionTrialsConfig& cfg) {
  validate(cfg.base);
  if (cfg.trials == 0) {
    throw std::invalid_argument("run_partition_trials_scalar: no trials");
  }
  const auto n_byz = byzantine_count(cfg.base);
  const auto n_honest = cfg.base.n_validators - n_byz;
  const auto k = cfg.base.branches;

  const StreamSeeder seeder(cfg.seed);
  const runner::TrialRunner pool(cfg.threads);
  sim::PartitionTrialsResult res;
  res.trials = cfg.trials;
  res.conflict_epochs.assign(cfg.trials, -1);
  res.beta_peaks.assign(cfg.trials, 0.0);
  res.residual_losses_eth.assign(cfg.trials, 0.0);
  res.recovery_epochs.assign(cfg.trials, -1);
  std::vector<std::uint8_t> exceeded_both(cfg.trials, 0);
  pool.run_blocks(
      cfg.trials, runner::resolve_block(cfg.block),
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint8_t> branch_of_honest(n_honest);
        for (std::size_t trial = begin; trial < end; ++trial) {
          Rng rng = seeder.stream(trial);
          for (std::uint32_t i = 0; i < n_honest; ++i) {
            // Two branches keep the legacy bernoulli(p0) draw exactly;
            // k > 2 assigns uniformly over the branches.
            branch_of_honest[i] =
                k == 2 ? (rng.bernoulli(cfg.base.p0) ? 0 : 1)
                       : static_cast<std::uint8_t>(rng.uniform_index(k));
          }
          const auto r = run_partition_core(cfg.base, n_byz, branch_of_honest);
          res.conflict_epochs[trial] = r.conflicting_finalization_epoch;
          double peak = 0.0;
          for (const auto& br : r.branch) peak = std::max(peak, br.beta_peak);
          res.beta_peaks[trial] = peak;
          exceeded_both[trial] = r.beta_exceeded_third_both ? 1 : 0;
          res.residual_losses_eth[trial] = r.residual_loss_total_eth;
          res.recovery_epochs[trial] = r.recovery_complete_epoch;
        }
      });

  std::size_t conflicting = 0;
  std::size_t exceeded = 0;
  std::size_t recovered = 0;
  double conflict_epoch_sum = 0.0;
  double residual_sum = 0.0;
  double recovery_epoch_sum = 0.0;
  for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
    if (res.conflict_epochs[trial] >= 0) {
      ++conflicting;
      conflict_epoch_sum += static_cast<double>(res.conflict_epochs[trial]);
    }
    if (exceeded_both[trial] != 0) ++exceeded;
    residual_sum += res.residual_losses_eth[trial];
    if (res.recovery_epochs[trial] >= 0) {
      ++recovered;
      recovery_epoch_sum += static_cast<double>(res.recovery_epochs[trial]);
    }
  }
  const double n = static_cast<double>(cfg.trials);
  res.conflicting_fraction = static_cast<double>(conflicting) / n;
  res.beta_exceeded_fraction = static_cast<double>(exceeded) / n;
  res.mean_conflict_epoch =
      conflicting > 0 ? conflict_epoch_sum / static_cast<double>(conflicting)
                      : 0.0;
  res.recovered_fraction = static_cast<double>(recovered) / n;
  res.mean_residual_loss_eth = residual_sum / n;
  res.mean_recovery_epoch =
      recovered > 0 ? recovery_epoch_sum / static_cast<double>(recovered)
                    : 0.0;
  return res;
}

sim::PartitionSimResult run_partition_sim_scalar(
    const sim::PartitionSimConfig& cfg) {
  validate(cfg);
  const auto n_byz = byzantine_count(cfg);
  const auto n_honest = cfg.n_validators - n_byz;
  std::vector<std::uint8_t> branch_of_honest(n_honest, 1);
  if (cfg.branches == 2) {
    const auto n_h1 = static_cast<std::uint32_t>(
        std::llround(cfg.p0 * static_cast<double>(n_honest)));
    for (std::uint32_t i = 0; i < std::min(n_h1, n_honest); ++i) {
      branch_of_honest[i] = 0;
    }
  } else {
    for (std::uint32_t i = 0; i < n_honest; ++i) {
      branch_of_honest[i] = static_cast<std::uint8_t>(
          (static_cast<std::uint64_t>(i) * cfg.branches) / n_honest);
    }
  }
  return run_partition_core(cfg, n_byz, branch_of_honest);
}

}  // namespace leak::oracle
