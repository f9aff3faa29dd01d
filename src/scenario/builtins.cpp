// Built-in scenario registrations: one adapter per existing driver.
// Each registration is a spec (typed parameters with defaults that
// reproduce the corresponding paper artifact) plus a run function that
// maps the validated ParamSet onto the driver's config struct and the
// driver's result onto the uniform ScenarioResult.  Every Monte Carlo
// scenario fans its trials through TrialRunner, so results are
// bit-identical for any thread count.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analytic/duty_cycle.hpp"
#include "src/analytic/recovery.hpp"
#include "src/analytic/stake_model.hpp"
#include "src/analytic/tables.hpp"
#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/faults/driver.hpp"
#include "src/faults/schedule.hpp"
#include "src/runner/trial_runner.hpp"
#include "src/scenario/registry.hpp"
#include "src/sim/partition_sim.hpp"
#include "src/sim/slot_sim.hpp"
#include "src/support/parse.hpp"
#include "src/support/random.hpp"
#include "src/support/stats.hpp"
#include "src/support/types.hpp"

namespace leak::scenario {

namespace {

[[noreturn]] void bad_params(const std::string& msg) {
  throw std::invalid_argument(msg);
}

/// Parse a comma-separated, strictly increasing epoch grid ("2000,4024").
std::vector<std::size_t> parse_snapshot_grid(const std::string& text,
                                             std::size_t max_epoch) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto piece = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    const auto v = parse::u64(piece);
    if (!v || *v == 0) {
      bad_params("snapshots: \"" + piece + "\" is not a positive epoch");
    }
    if (!out.empty() && *v <= out.back()) {
      bad_params("snapshots must be strictly increasing");
    }
    if (*v > max_epoch) {
      bad_params("snapshot epoch " + std::to_string(*v) +
                 " is beyond epochs=" + std::to_string(max_epoch));
    }
    out.push_back(static_cast<std::size_t>(*v));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

double median_alive(const std::vector<double>& stakes) {
  std::vector<double> alive;
  for (const double s : stakes) {
    if (s > 0.0) alive.push_back(s);
  }
  return alive.empty() ? 0.0 : quantile(std::move(alive), 0.5);
}

sim::Strategy strategy_from_name(const std::string& name) {
  if (name == "honest") return sim::Strategy::kNone;
  if (name == "slashable") return sim::Strategy::kSlashable;
  if (name == "semiactive") return sim::Strategy::kSemiActiveFinalize;
  return sim::Strategy::kSemiActiveOverthrow;  // "overthrow"
}

faults::LinkClass link_from_name(const std::string& name) {
  if (name == "intra") return faults::LinkClass::kIntra;
  if (name == "cross") return faults::LinkClass::kCross;
  return faults::LinkClass::kAll;  // "all"
}

/// The shared `faults` param: an inline fault-schedule JSON document
/// (the compact FaultSchedule::dump form, or anything from_string
/// accepts).  Inline -- not a path -- so sweep cells, serve jobs and
/// search journals stay self-contained and resumable; leakctl --faults
/// reads the file and injects its contents here.  The text is parsed
/// and validated wherever a value is set (--set, sweep axes, params and
/// manifest documents), so a bad schedule fails before any run.
ScenarioSpec& add_faults_param(ScenarioSpec& spec) {
  return spec.add_string(
      "faults",
      "inline fault-schedule JSON overriding the scenario's own "
      "partition/weather knobs (empty = knobs; leakctl --faults FILE "
      "fills this)",
      "", {}, [](const std::string& text) -> std::optional<std::string> {
        if (text.empty()) return std::nullopt;
        try {
          (void)faults::FaultSchedule::from_string(text);
        } catch (const std::exception& e) {
          return e.what();
        }
        return std::nullopt;
      });
}

/// Resolve the effective schedule: the `faults` param wins, otherwise
/// the knob-built fallback.
faults::FaultSchedule resolve_schedule(const ParamSet& p,
                                       faults::FaultSchedule fallback) {
  const std::string& text = p.get_string("faults");
  if (text.empty()) return fallback;
  return faults::FaultSchedule::from_string(text);
}

/// Append the uniform fan-out params (registry.hpp): master seed,
/// worker threads and block size, in that order.
void add_fanout(ScenarioSpec& spec, std::int64_t seed_default) {
  spec.add_int("seed", "master RNG seed", seed_default)
      .add_int("threads", "worker threads (0 = auto)", 0, 0, 1024)
      .add_int("block",
               "trials per scheduled block (0 = auto: spread over the "
               "workers, at most 64)",
               0, 0, 1e9);
}

/// The uniform paths/seed/threads/block params of a deterministic
/// scenario, which accepts and ignores all four.
void add_ignored_fanout(ScenarioSpec& spec) {
  const std::string ignored = "(ignored - deterministic scenario)";
  spec.add_int("paths", ignored, 1, 1, 1e9)
      .add_int("seed", ignored, 0)
      .add_int("threads", ignored, 0, 0, 1024)
      .add_int("block", ignored, 0, 0, 1e9);
}

/// Copy the uniform fan-out params into a driver config.
template <typename Config>
void set_fanout(const ParamSet& p, Config* cfg) {
  cfg->seed = static_cast<std::uint64_t>(p.get_int("seed"));
  cfg->threads = static_cast<unsigned>(p.get_int("threads"));
  cfg->block = static_cast<std::size_t>(p.get_int("block"));
}

// --- bouncing-mc --------------------------------------------------------
// Figure 9 defaults: censored stake law at t = 4024, 4000 paths, seed 99.

void register_bouncing_mc(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "bouncing-mc",
      "Monte Carlo of the Figure 8 bouncing-attack stake dynamics; "
      "empirical censored stake law vs the closed form (Fig 9) and "
      "P[beta > 1/3] (Fig 10 cross-check)");
  spec.add_int("paths", "independent Monte Carlo paths", 4000, 1, 1e9)
      .add_int("epochs", "horizon in epochs", 4024, 1, 1e7)
      .add_double("p0", "honest branch-assignment probability", 0.5, 0.0, 1.0)
      .add_double("beta0", "Byzantine stake proportion", 0.33, 0.0, 0.5)
      .add_string("snapshots",
                  "comma-separated snapshot epochs; empty = final epoch only",
                  "");
  add_fanout(spec, 99);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    bouncing::McConfig cfg;
    cfg.paths = static_cast<std::size_t>(p.get_int("paths"));
    cfg.epochs = static_cast<std::size_t>(p.get_int("epochs"));
    cfg.p0 = p.get_double("p0");
    cfg.beta0 = p.get_double("beta0");
    set_fanout(p, &cfg);
    const std::string& grid = p.get_string("snapshots");
    const std::vector<std::size_t> snaps =
        grid.empty() ? std::vector<std::size_t>{cfg.epochs}
                     : parse_snapshot_grid(grid, cfg.epochs);
    const auto res = bouncing::run_bouncing_mc(cfg, snaps);

    Table rows({"epoch", "ejected_fraction", "capped_fraction",
                "prob_beta_exceeds", "median_alive_stake"});
    for (std::size_t k = 0; k < res.epochs.size(); ++k) {
      rows.add_row({std::to_string(res.epochs[k]),
                    Table::fmt_exact(res.ejected_fraction[k]),
                    Table::fmt_exact(res.capped_fraction[k]),
                    Table::fmt_exact(res.prob_beta_exceeds[k]),
                    Table::fmt_exact(median_alive(res.stakes[k]))});
    }
    out->trials = std::move(rows);

    const std::size_t last = res.epochs.size() - 1;
    out->add_metric("ejected_fraction", res.ejected_fraction[last]);
    out->add_metric("capped_fraction", res.capped_fraction[last]);
    out->add_metric("prob_beta_exceeds", res.prob_beta_exceeds[last]);
    out->add_metric("median_alive_stake", median_alive(res.stakes[last]));
    out->add_stats("final_stake", res.stake_stats[last]);
  });
}

// --- attack-lifetime ----------------------------------------------------

void register_attack_lifetime(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "attack-lifetime",
      "Stochastic lifetime of the probabilistic bouncing attack "
      "(Section 5.3): per-epoch proposer lottery, attack-duration "
      "distribution, and P[beta crosses 1/3 before the attack dies]");
  spec.add_int("paths", "independent attack runs", 1000, 1, 1e9)
      .add_double("beta0", "initial Byzantine stake proportion", 0.33, 0.0,
                  0.5)
      .add_double("p0", "honest split maintained by the adversary", 0.5, 0.0,
                  1.0)
      .add_int("j", "proposer slots usable per epoch", 8, 1, 32)
      .add_int("honest_validators", "honest validators per run", 200, 1, 1e6)
      .add_int("max_epochs", "horizon in epochs", 8000, 1, 1e7)
      .add_bool("stake_weighted",
                "continuation lottery uses the current stake-weighted beta "
                "(false = constant beta0 paper bound)",
                true);
  add_fanout(spec, 2024);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    bouncing::AttackSimConfig cfg;
    cfg.runs = static_cast<std::size_t>(p.get_int("paths"));
    cfg.beta0 = p.get_double("beta0");
    cfg.p0 = p.get_double("p0");
    cfg.j = static_cast<int>(p.get_int("j"));
    cfg.honest_validators =
        static_cast<std::size_t>(p.get_int("honest_validators"));
    cfg.max_epochs = static_cast<std::size_t>(p.get_int("max_epochs"));
    cfg.stake_weighted_lottery = p.get_bool("stake_weighted");
    set_fanout(p, &cfg);
    const auto res = bouncing::run_attack_sim(cfg);

    out->add_metric("prob_threshold_broken", res.prob_threshold_broken);
    out->add_metric("mean_duration", res.mean_duration);
    out->add_metric("median_duration", res.median_duration);
    out->add_metric("p99_duration", res.p99_duration);
    out->add_metric(
        "expected_duration_const_beta",
        bouncing::expected_duration_constant_beta(cfg.beta0, cfg.j));
    RunningStats durations;
    Table rows({"run", "duration"});
    for (std::size_t i = 0; i < res.durations.size(); ++i) {
      durations.add(static_cast<double>(res.durations[i]));
      rows.add_row({std::to_string(i), std::to_string(res.durations[i])});
    }
    out->add_stats("duration", durations);
    out->trials = std::move(rows);
  });
}

// --- population-ensemble ------------------------------------------------

void register_population_ensemble(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "population-ensemble",
      "Ensemble of finite-population bouncing runs: N honest validators "
      "per path, per-epoch branch-level Byzantine proportion, fraction "
      "of paths where beta ever exceeds 1/3");
  spec.add_int("paths", "independent population runs", 100, 1, 1e9)
      .add_int("honest_validators", "honest validators per run", 200, 1, 1e6)
      .add_int("epochs", "horizon in epochs", 6000, bouncing::kBetaStride,
               1e7)
      .add_double("p0", "honest branch-assignment probability", 0.5, 0.0, 1.0)
      .add_double("beta0", "Byzantine stake proportion", 0.33, 0.0, 0.5);
  add_fanout(spec, 11);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    bouncing::PopulationEnsembleConfig cfg;
    cfg.base.honest_validators =
        static_cast<std::uint32_t>(p.get_int("honest_validators"));
    cfg.base.epochs = static_cast<std::size_t>(p.get_int("epochs"));
    cfg.base.p0 = p.get_double("p0");
    cfg.base.beta0 = p.get_double("beta0");
    cfg.base.seed = static_cast<std::uint64_t>(p.get_int("seed"));
    cfg.paths = static_cast<std::size_t>(p.get_int("paths"));
    cfg.threads = static_cast<unsigned>(p.get_int("threads"));
    cfg.block = static_cast<std::size_t>(p.get_int("block"));
    const auto res = bouncing::run_population_ensemble(cfg);

    out->add_metric("exceed_fraction", res.exceed_fraction);
    out->add_metric("mean_final_beta", res.mean_final_beta);
    RunningStats exceed_epochs;
    Table rows({"path", "first_exceed_epoch"});
    for (std::size_t i = 0; i < res.first_exceed_epochs.size(); ++i) {
      const auto e = res.first_exceed_epochs[i];
      if (e >= 0) exceed_epochs.add(static_cast<double>(e));
      rows.add_row({std::to_string(i), std::to_string(e)});
    }
    out->add_stats("first_exceed_epoch", exceed_epochs);
    out->trials = std::move(rows);
  });
}

// --- partition family ---------------------------------------------------
// The epoch-granular partition scenarios share their population,
// strategy, horizon and fan-out params; each builds its own knob
// schedule, which a non-empty `faults` param supersedes.

/// Trials config from the shared partition params.  Every knob path
/// compiles to fault windows too, so every run exercises the
/// FaultDriver and the baselines pin its bit-identity.
sim::PartitionTrialsConfig partition_config(const ParamSet& p,
                                            faults::FaultSchedule fallback) {
  sim::PartitionTrialsConfig cfg;
  cfg.base.n_validators =
      static_cast<std::uint32_t>(p.get_int("n_validators"));
  cfg.base.beta0 = p.get_double("beta0");
  cfg.base.strategy = strategy_from_name(p.get_string("strategy"));
  cfg.base.max_epochs = static_cast<std::size_t>(p.get_int("max_epochs"));
  // Trajectories are per-epoch bulk the trials never read; sample at
  // the horizon only.
  cfg.base.trajectory_stride = cfg.base.max_epochs;
  faults::compile_partition(resolve_schedule(p, std::move(fallback)),
                            &cfg.base);
  cfg.trials = static_cast<std::size_t>(p.get_int("paths"));
  set_fanout(p, &cfg);
  return cfg;
}

void add_conflict_metrics(const sim::PartitionTrialsResult& res,
                          ScenarioResult* out) {
  out->add_metric("conflicting_fraction", res.conflicting_fraction);
  out->add_metric("beta_exceeded_fraction", res.beta_exceeded_fraction);
  out->add_metric("mean_conflict_epoch", res.mean_conflict_epoch);
}

/// The healing scenarios' shared run: the randomized-split trials and
/// the deterministic even-split run, whose homogeneous classes the
/// caller cross-checks against analytic::recovery.  Writes the shared
/// metrics, the beta_peak / residual_loss_eth stats and the per-trial
/// rows; returns the deterministic run.
sim::PartitionSimResult run_healing(const sim::PartitionTrialsConfig& cfg,
                                    ScenarioResult* out) {
  const auto res = sim::run_partition_trials(cfg);
  add_conflict_metrics(res, out);
  out->add_metric("recovered_fraction", res.recovered_fraction);
  out->add_metric("mean_residual_loss_eth", res.mean_residual_loss_eth);
  out->add_metric("mean_recovery_epoch", res.mean_recovery_epoch);

  auto det = sim::run_partition_sim(cfg.base);
  out->add_metric("det_heal_complete_epoch",
                  static_cast<double>(det.heal_complete_epoch));
  out->add_metric("det_recovery_complete_epoch",
                  static_cast<double>(det.recovery_complete_epoch));
  out->add_metric("det_residual_loss_total_eth", det.residual_loss_total_eth);

  RunningStats peaks, losses;
  Table rows({"trial", "conflict_epoch", "beta_peak", "residual_loss_eth",
              "recovery_epoch"});
  for (std::size_t i = 0; i < res.conflict_epochs.size(); ++i) {
    peaks.add(res.beta_peaks[i]);
    losses.add(res.residual_losses_eth[i]);
    rows.add_row({std::to_string(i), std::to_string(res.conflict_epochs[i]),
                  Table::fmt_exact(res.beta_peaks[i]),
                  Table::fmt_exact(res.residual_losses_eth[i]),
                  std::to_string(res.recovery_epochs[i])});
  }
  out->add_stats("beta_peak", peaks);
  out->add_stats("residual_loss_eth", losses);
  out->trials = std::move(rows);
  return det;
}

// --- partition-trials ---------------------------------------------------
// Defaults match the Table 1 end-to-end verification row: 32 random
// honest splits of the Section 5.1 scenario (400 validators, honest,
// 5000-epoch horizon, seed 2024).

void register_partition_trials(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "partition-trials",
      "Monte Carlo over the Section 5 partition scenarios: each trial "
      "redraws the honest branch assignment iid and runs the "
      "epoch-granular partition simulator (conflicting finalization, "
      "beta > 1/3 on both branches)");
  spec.add_int("paths", "randomized-split trials", 32, 1, 1e9)
      .add_int("n_validators", "total validators", 400, 2, 1e6)
      .add_double("beta0", "Byzantine stake proportion", 0.0, 0.0, 0.5)
      .add_double("p0", "honest proportion on branch 1", 0.5, 0.0, 1.0)
      .add_string("strategy", "Byzantine strategy during the partition",
                  "honest", {"honest", "slashable", "semiactive", "overthrow"})
      .add_int("max_epochs", "horizon in epochs", 5000, 1, 1e7);
  add_fanout(spec, 2024);
  add_faults_param(spec);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    auto cfg = partition_config(
        p, faults::FaultSchedule::staggered_partition(2, 0, 0, 0));
    cfg.base.p0 = p.get_double("p0");
    const auto res = sim::run_partition_trials(cfg);

    add_conflict_metrics(res, out);
    RunningStats peaks;
    Table rows({"trial", "conflict_epoch", "beta_peak"});
    for (std::size_t i = 0; i < res.conflict_epochs.size(); ++i) {
      peaks.add(res.beta_peaks[i]);
      rows.add_row({std::to_string(i), std::to_string(res.conflict_epochs[i]),
                    Table::fmt_exact(res.beta_peaks[i])});
    }
    out->add_stats("beta_peak", peaks);
    out->trials = std::move(rows);
  });
}

// --- duty-cycle ---------------------------------------------------------

void register_duty_cycle(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "duty-cycle",
      "Closed-form 1-in-k duty-cycle family (active / semi-active / "
      "inactive generalization) and the m-branch attack bounds; "
      "deterministic, paths/seed ignored");
  spec.add_int("k_max", "largest duty cycle 1/k to tabulate", 8, 1, 64)
      .add_double("t_eval", "epoch at which to evaluate the stake", 1000.0,
                  1.0, 1e7)
      .add_double("beta0", "Byzantine proportion for the m-branch bounds",
                  0.33, 0.0, 0.5);
  add_ignored_fanout(spec);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    const auto cfg = analytic::AnalyticConfig::paper();
    const auto k_max = static_cast<unsigned>(p.get_int("k_max"));
    const double t_eval = p.get_double("t_eval");
    const double beta0 = p.get_double("beta0");

    Table rows({"k", "score_slope", "ejection_epoch", "stake_at_t",
                "mbranch_supermajority_epoch", "mbranch_beta_max"});
    for (unsigned k = 1; k <= k_max; ++k) {
      const bool multi = k >= 2;
      rows.add_row(
          {std::to_string(k),
           Table::fmt_exact(analytic::duty_cycle_slope(k, cfg)),
           Table::fmt_exact(analytic::duty_cycle_ejection_epoch(k, cfg)),
           Table::fmt_exact(analytic::duty_cycle_stake(k, t_eval, cfg)),
           multi ? Table::fmt_exact(
                       analytic::multibranch_supermajority_epoch(k, beta0,
                                                                 cfg))
                 : "-",
           multi ? Table::fmt_exact(
                       analytic::multibranch_beta_max(k, beta0, cfg))
                 : "-"});
    }
    out->trials = std::move(rows);

    out->add_metric("semi_active_slope", analytic::duty_cycle_slope(2, cfg));
    out->add_metric("semi_active_ejection_epoch",
                    analytic::duty_cycle_ejection_epoch(2, cfg));
    out->add_metric("stake_at_t_k2",
                    analytic::duty_cycle_stake(2, t_eval, cfg));
    out->add_metric("beta0_lower_bound_m2",
                    analytic::multibranch_beta0_lower_bound(2, cfg));
    if (k_max >= 3) {
      out->add_metric("beta0_lower_bound_m3",
                      analytic::multibranch_beta0_lower_bound(3, cfg));
    }
  });
}

// --- recovery -----------------------------------------------------------

void register_recovery(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "recovery",
      "Post-leak recovery tail (Figure 3 discussion): score decay after "
      "finalization resumes and the residual stake lost, closed form vs "
      "exact discrete recurrence; deterministic, paths/seed ignored");
  spec.add_double("t_end", "epoch at which the leak ends", 500.0, 1.0, 1e7);
  add_ignored_fanout(spec);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    const auto cfg = analytic::AnalyticConfig::paper();
    const double t_end = p.get_double("t_end");
    const double score0 = analytic::score_at_leak_end(t_end, cfg);
    const double stake_end = analytic::stake_with_ejection(
        analytic::Behavior::kInactive, t_end, cfg);
    const double closed = analytic::residual_loss(score0, stake_end, cfg);
    const double discrete =
        analytic::residual_loss_discrete(score0, stake_end, cfg);
    out->add_metric("score_at_leak_end", score0);
    out->add_metric("stake_at_leak_end", stake_end);
    out->add_metric("recovery_epochs", analytic::recovery_epochs(score0));
    out->add_metric("residual_loss_closed", closed);
    out->add_metric("residual_loss_discrete", discrete);
    out->add_metric("closed_vs_discrete_abs_err",
                    std::fabs(closed - discrete));
  });
}

// --- slot-level scenarios -------------------------------------------------

/// Run the `paths` trials of a slot-level scenario through the trial
/// runner: trial i runs `base` seeded seed_for(i) and lands at index i,
/// so the results are bit-identical for every thread count.
std::vector<sim::SlotSimResult> run_slot_trials(
    const sim::SlotSimConfig& base, const ParamSet& p) {
  const auto paths = static_cast<std::size_t>(p.get_int("paths"));
  const auto block = static_cast<std::size_t>(p.get_int("block"));
  const StreamSeeder seeder(static_cast<std::uint64_t>(p.get_int("seed")));
  const runner::TrialRunner pool(static_cast<unsigned>(p.get_int("threads")));
  std::vector<sim::SlotSimResult> trials(paths);
  pool.run_blocks(paths, block, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      sim::SlotSimConfig cfg = base;
      cfg.seed = seeder.seed_for(i);
      trials[i] = sim::SlotSim(cfg).run();
    }
  });
  return trials;
}

/// Base config from the params every slot scenario shares; each
/// caller adds its own knobs (the region split, release timing or
/// weather).
sim::SlotSimConfig slot_config(const ParamSet& p) {
  sim::SlotSimConfig base;
  base.n_honest = static_cast<std::uint32_t>(p.get_int("n_honest"));
  base.n_byzantine = static_cast<std::uint32_t>(p.get_int("n_byzantine"));
  base.epochs = static_cast<std::size_t>(p.get_int("epochs"));
  base.delta = p.get_double("delta");
  base.proposer_boost = static_cast<unsigned>(p.get_int("proposer_boost"));
  return base;
}

/// The params slot-protocol and flaky-network share: trial count,
/// validator set, the two-region split healing at gst_epoch, delay
/// bound and proposer boost.  balancing-attack has no region split and
/// declares its own.
ScenarioSpec& add_region_slot_params(ScenarioSpec& spec,
                                     std::int64_t paths_default,
                                     std::int64_t epochs_default) {
  spec.add_int("paths", "independent simulation trials", paths_default, 1,
               1e6)
      .add_int("n_honest", "honest validators", 32, 1, 4096)
      .add_int("n_byzantine", "Byzantine (equivocating) validators", 0, 0,
               4096)
      .add_int("epochs", "horizon in epochs", epochs_default, 1, 256)
      .add_double("p0", "honest fraction assigned to region one", 1.0, 0.0,
                  1.0)
      .add_double("gst_epoch",
                  "epoch at which the partition heals (0 = no partition)",
                  0.0, 0.0, 1e6)
      .add_double("delta", "network delay bound in seconds", 1.0,
                  sim::kMinDelay, 60.0)
      .add_int("proposer_boost",
               "fork-choice proposer-boost percent (0 = off, mainnet 40)", 0,
               0, 100);
  return spec;
}

/// Fraction of the slot trials in which validator 0 saw the leak.
double leak_fraction(const std::vector<sim::SlotSimResult>& trials) {
  const auto leaks = std::count_if(
      trials.begin(), trials.end(),
      [](const sim::SlotSimResult& t) { return t.leak_observed; });
  return static_cast<double>(leaks) / static_cast<double>(trials.size());
}

/// Validator 0's entry of a per-validator epoch vector, 0 when empty.
std::uint64_t first_or_zero(const std::vector<std::uint64_t>& epochs) {
  return epochs.empty() ? 0 : epochs.front();
}

// --- slot-protocol ------------------------------------------------------

void register_slot_protocol(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "slot-protocol",
      "Full slot-level protocol simulation (proposers, gossip, "
      "LMD-GHOST, FFG, slashing): N independent seeds through the "
      "trial runner, measuring finality progress, safety violations, "
      "and slashing detection");
  add_region_slot_params(spec, 4, 8);
  add_fanout(spec, 1);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    sim::SlotSimConfig base = slot_config(p);
    base.p0 = p.get_double("p0");
    base.gst_epoch = p.get_double("gst_epoch");
    const std::vector<sim::SlotSimResult> trials = run_slot_trials(base, p);

    RunningStats finalized, violations, slashed, messages;
    Table rows({"trial", "finalized_epoch", "justified_epoch",
                "safety_violations", "slashed", "messages", "leak_observed"});
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const auto& t = trials[i];
      const auto fin = static_cast<double>(first_or_zero(t.finalized_epoch));
      const auto just = static_cast<double>(first_or_zero(t.justified_epoch));
      finalized.add(fin);
      violations.add(static_cast<double>(t.safety_violations));
      slashed.add(static_cast<double>(t.slashed.size()));
      messages.add(static_cast<double>(t.messages_delivered));
      rows.add_row({std::to_string(i), Table::fmt_exact(fin),
                    Table::fmt_exact(just),
                    std::to_string(t.safety_violations),
                    std::to_string(t.slashed.size()),
                    std::to_string(t.messages_delivered),
                    t.leak_observed ? "true" : "false"});
    }
    out->add_metric("mean_finalized_epoch", finalized.mean());
    out->add_metric("mean_safety_violations", violations.mean());
    out->add_metric("mean_slashed", slashed.mean());
    out->add_metric("mean_messages", messages.mean());
    out->add_metric("leak_observed_fraction", leak_fraction(trials));
    out->add_stats("finalized_epoch", finalized);
    out->trials = std::move(rows);
  });
}

// --- balancing-attack ---------------------------------------------------
// The classic Neu/Tas/Tse balancing attack on LMD-GHOST, driven through
// the slot-level protocol simulator's proposer-equivocation strategy.

void register_balancing_attack(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "balancing-attack",
      "Balancing attack on LMD-GHOST (proposer equivocation splits the "
      "honest head votes across two sibling blocks; Byzantine attesters "
      "keep the fork balanced without slashable votes), measuring how "
      "long the balanced fork stalls finality vs the Section 5 leak "
      "trigger; sweep n_byzantine x delta");
  spec.add_int("paths", "independent simulation trials", 8, 1, 1e6)
      .add_int("n_honest", "honest validators", 32, 2, 4096)
      .add_int("n_byzantine", "Byzantine (equivocating) validators", 8, 1,
               4096)
      .add_int("epochs", "horizon in epochs", 16, 1, 256)
      .add_double("delta", "network delay bound in seconds", 1.0,
                  sim::kMinDelay, 60.0)
      .add_double("release_delay",
                  "seconds before an equivocation sibling reaches its own "
                  "audience half (adversary release-timing knob)",
                  0.1, 0.0, 8.0)
      .add_double("cross_delay",
                  "seconds past the epoch boundary before the withheld "
                  "cross-side copies are released",
                  0.1, 0.0, 8.0)
      .add_int("proposer_boost",
               "fork-choice proposer-boost percent (0 = off, mainnet 40)", 0,
               0, 100);
  add_fanout(spec, 42);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    sim::SlotSimConfig base = slot_config(p);
    base.release_delay = p.get_double("release_delay");
    base.cross_delay = p.get_double("cross_delay");
    base.proposer_strategy = sim::ProposerStrategy::kBalancing;
    const std::vector<sim::SlotSimResult> trials = run_slot_trials(base, p);

    const double leak_trigger = static_cast<double>(
        base.spec.min_epochs_to_inactivity_penalty);
    RunningStats stalls, finalized, equivocations;
    std::size_t exceeds_trigger = 0;
    double stalled_fraction_sum = 0.0;
    Table rows({"trial", "finality_stall_epochs", "finalized_epoch",
                "equivocating_proposals", "leak_observed",
                "safety_violations"});
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const auto& t = trials[i];
      const double stall = static_cast<double>(t.finality_stall_epochs);
      stalls.add(stall);
      const std::uint64_t fin_epoch = first_or_zero(t.finalized_epoch);
      finalized.add(static_cast<double>(fin_epoch));
      equivocations.add(static_cast<double>(t.equivocating_proposals));
      if (stall > leak_trigger) ++exceeds_trigger;
      // Fraction of epoch boundaries without finality progress.
      std::size_t stalled = 0;
      std::uint64_t prev = 0;
      for (const std::uint64_t fin : t.finalized_epoch_trajectory) {
        if (fin > prev) {
          prev = fin;
        } else {
          ++stalled;
        }
      }
      stalled_fraction_sum +=
          t.finalized_epoch_trajectory.empty()
              ? 0.0
              : static_cast<double>(stalled) /
                    static_cast<double>(t.finalized_epoch_trajectory.size());
      rows.add_row({std::to_string(i), Table::fmt_exact(stall),
                    std::to_string(fin_epoch),
                    std::to_string(t.equivocating_proposals),
                    t.leak_observed ? "true" : "false",
                    std::to_string(t.safety_violations)});
    }
    const double n = trials.empty() ? 1.0 : static_cast<double>(trials.size());
    out->add_metric("mean_finality_stall_epochs", stalls.mean());
    out->add_metric("max_finality_stall_epochs", stalls.max());
    out->add_metric("stalled_epoch_fraction", stalled_fraction_sum / n);
    out->add_metric("mean_finalized_epoch", finalized.mean());
    out->add_metric("mean_equivocating_proposals", equivocations.mean());
    out->add_metric("leak_observed_fraction", leak_fraction(trials));
    out->add_metric("leak_trigger_epochs", leak_trigger);
    out->add_metric("stall_exceeds_leak_trigger_fraction",
                    static_cast<double>(exceeds_trigger) / n);
    out->add_stats("finality_stall_epochs", stalls);
    out->trials = std::move(rows);
  });
}

// --- semiactive-sweep ---------------------------------------------------
// Duty-cycled 1/m Byzantine rotation over m >= 2 branches: the
// analytic::multibranch_* closed forms cross-checked by run_bouncing_mc
// on the branch-level exceedance criterion.

void register_semiactive_sweep(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "semiactive-sweep",
      "Semi-active leak generalized to a 1/m duty-cycle rotation over "
      "m >= 2 branches: closed-form beta_max, supermajority-recovery "
      "epoch and minimum beta0 (analytic::multibranch_*), cross-checked "
      "by a run_bouncing_mc Monte Carlo of the branch-level exceedance "
      "criterion; sweep branches x beta0");
  spec.add_int("branches", "rotation branches m (2 = paper's semi-active)",
               2, 2, 16)
      .add_double("beta0", "Byzantine stake proportion", 0.33, 0.0, 0.5)
      .add_int("paths", "Monte Carlo paths for the cross-check", 2000, 1,
               1e9)
      .add_int("epochs", "Monte Carlo horizon in epochs", 4024, 4, 1e7);
  add_fanout(spec, 7);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    const auto cfg = analytic::AnalyticConfig::paper();
    const auto m = static_cast<unsigned>(p.get_int("branches"));
    const double beta0 = p.get_double("beta0");

    // Closed forms.
    const double beta_max = analytic::multibranch_beta_max(m, beta0, cfg);
    const double sm_epoch =
        analytic::multibranch_supermajority_epoch(m, beta0, cfg);
    out->add_metric("beta_max", beta_max);
    out->add_metric("supermajority_recovery_epoch", sm_epoch);
    out->add_metric("beta0_lower_bound",
                    analytic::multibranch_beta0_lower_bound(m, cfg));
    out->add_metric("duty_cycle_slope", analytic::duty_cycle_slope(m, cfg));
    out->add_metric("byz_ejection_epoch",
                    analytic::duty_cycle_ejection_epoch(m, cfg));

    // Monte Carlo cross-check: honest validators bounce with
    // p0 = 1/m; the exceedance criterion uses the duty-cycled
    // Byzantine reference stake on one branch.
    bouncing::McConfig mc;
    mc.branches = m;
    mc.p0 = 1.0 / static_cast<double>(m);
    mc.beta0 = beta0;
    mc.paths = static_cast<std::size_t>(p.get_int("paths"));
    mc.epochs = static_cast<std::size_t>(p.get_int("epochs"));
    set_fanout(p, &mc);
    mc.keep_paths = false;  // summaries only
    std::vector<std::size_t> snaps;
    for (const std::size_t q : {1ul, 2ul, 3ul, 4ul}) {
      const std::size_t e = mc.epochs * q / 4;
      if (e > 0 && (snaps.empty() || e > snaps.back())) snaps.push_back(e);
    }
    const auto res = bouncing::run_bouncing_mc(mc, snaps);

    Table rows({"epoch", "ejected_fraction", "prob_beta_exceeds",
                "mean_stake", "exceed_threshold"});
    for (std::size_t k = 0; k < res.epochs.size(); ++k) {
      rows.add_row(
          {std::to_string(res.epochs[k]),
           Table::fmt_exact(res.ejected_fraction[k]),
           Table::fmt_exact(res.prob_beta_exceeds[k]),
           Table::fmt_exact(res.stake_stats[k].mean()),
           Table::fmt_exact(analytic::multibranch_exceed_threshold(
               m, beta0, static_cast<double>(res.epochs[k]), cfg))});
    }
    out->trials = std::move(rows);

    const std::size_t last = res.epochs.size() - 1;
    out->add_metric("mc_prob_beta_exceeds", res.prob_beta_exceeds[last]);
    out->add_metric("mc_ejected_fraction", res.ejected_fraction[last]);
    out->add_metric("mc_mean_stake", res.stake_stats[last].mean());
    // Agreement indicator: when the closed-form beta_max clears 1/3 the
    // Monte Carlo exceedance probability should approach 1 by the
    // ejection horizon (and stay near 0 otherwise).
    out->add_metric("analytic_predicts_exceed",
                    beta_max > 1.0 / 3.0 ? 1.0 : 0.0);
    out->add_stats("final_stake", res.stake_stats[last]);
  });
}

// --- multi-partition-recovery -------------------------------------------
// k >= 2 partition branches healing pairwise at staggered GSTs, with
// the post-leak recovery tail validated against analytic::recovery.

void register_multi_partition_recovery(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "multi-partition-recovery",
      "Partition into k branches healing pairwise at staggered GSTs "
      "(branch b merges at heal_epoch + (b-1) * heal_stagger): "
      "randomized-split trials of the epoch-granular simulator, "
      "measuring conflicting finalization, the recovery tail after "
      "finality resumes, and the residual losses vs the "
      "analytic::recovery closed form; sweep branches x heal_stagger");
  spec.add_int("paths", "randomized-split trials", 16, 1, 1e9)
      .add_int("n_validators", "total validators", 400, 2, 1e6)
      .add_double("beta0", "Byzantine stake proportion", 0.0, 0.0, 0.5)
      .add_double("p0",
                  "honest proportion on branch 1 (two-branch case only)",
                  0.5, 0.0, 1.0)
      .add_string("strategy", "Byzantine strategy during the partition",
                  "honest", {"honest", "slashable", "semiactive", "overthrow"})
      .add_int("branches", "partition branches k", 3, 2, 64)
      .add_int("heal_epoch", "first pairwise heal epoch (0 = never heal)",
               2000, 0, 1e7)
      .add_int("heal_stagger", "epochs between successive pairwise heals",
               500, 0, 1e7)
      .add_int("max_epochs", "horizon in epochs", 8000, 1, 1e7);
  add_fanout(spec, 2024);
  add_faults_param(spec);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    // The heal knobs compile to a schedule (branch b heals at
    // heal_epoch + (b-1) * heal_stagger); a non-empty `faults` schedule
    // supersedes branches/heal_epoch/heal_stagger entirely.
    auto cfg = partition_config(
        p, faults::FaultSchedule::staggered_partition(
               static_cast<std::uint32_t>(p.get_int("branches")), 0,
               static_cast<std::size_t>(p.get_int("heal_epoch")),
               static_cast<std::size_t>(p.get_int("heal_stagger"))));
    cfg.base.p0 = p.get_double("p0");
    // Deterministic closed-form cross-check: the even-split run's
    // homogeneous classes let analytic::residual_loss be compared
    // per validator against the sim's exact-arithmetic recovery tail.
    const auto det = run_healing(cfg, out);
    const sim::RecoveryOutcome* worst = nullptr;
    for (const auto& rec : det.recovery) {
      // Only classes whose recovery finished inside the horizon have a
      // measured residual to compare against the closed form.
      if (rec.return_epoch < 0 || rec.recovery_epochs < 0) continue;
      if (worst == nullptr || rec.score_at_return > worst->score_at_return) {
        worst = &rec;
      }
    }
    if (worst != nullptr) {
      const auto acfg = analytic::AnalyticConfig::paper();
      const double closed = analytic::residual_loss(
          worst->score_at_return, worst->stake_at_return_eth, acfg);
      out->add_metric("det_worst_class_score_at_return",
                      worst->score_at_return);
      out->add_metric("det_worst_class_residual_loss_eth",
                      worst->residual_loss_eth);
      out->add_metric("det_worst_class_residual_loss_closed_eth", closed);
      out->add_metric("det_recovery_closed_form_abs_err",
                      std::fabs(closed - worst->residual_loss_eth));
    }
  });
}

// --- cascading-partitions -----------------------------------------------
// The fault harness end to end on the epoch-granular path: a staggered
// cascade of partition opens healing pairwise, with every healed
// class's recovery tail cross-checked against both recovery models.

void register_cascading_partitions(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "cascading-partitions",
      "Cascading partition weather compiled from a FaultSchedule: "
      "branch b opens at 1 + (b-1) * open_stagger and heals at "
      "heal_epoch + (b-1) * heal_stagger; every healed class's recovery "
      "tail is validated per class against analytic::residual_loss "
      "(closed form) and the exact discrete recurrence; sweep branches "
      "x open_stagger x heal_stagger");
  spec.add_int("paths", "randomized-split trials", 16, 1, 1e9)
      .add_int("n_validators", "total validators", 300, 2, 1e6)
      .add_double("beta0", "Byzantine stake proportion", 0.0, 0.0, 0.5)
      .add_string("strategy", "Byzantine strategy during the partition",
                  "honest", {"honest", "slashable", "semiactive", "overthrow"})
      .add_int("branches", "partition branches k", 3, 2, 8)
      .add_int("open_stagger", "epochs between successive branch opens", 300,
               0, 1e7)
      .add_int("heal_epoch", "first pairwise heal epoch (0 = never heal)",
               2500, 0, 1e7)
      .add_int("heal_stagger", "epochs between successive pairwise heals",
               500, 0, 1e7)
      .add_int("max_epochs", "horizon in epochs", 9000, 1, 1e7);
  add_fanout(spec, 2024);
  add_faults_param(spec);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    const auto cfg = partition_config(
        p, faults::FaultSchedule::staggered_partition(
               static_cast<std::uint32_t>(p.get_int("branches")),
               static_cast<std::size_t>(p.get_int("open_stagger")),
               static_cast<std::size_t>(p.get_int("heal_epoch")),
               static_cast<std::size_t>(p.get_int("heal_stagger"))));
    // Per-episode analytic cross-check: the deterministic even-split
    // run yields one homogeneous class per healed branch, so each
    // class's exact-arithmetic recovery tail can be compared against
    // both recovery models class by class.
    const auto det = run_healing(cfg, out);
    const auto acfg = analytic::AnalyticConfig::paper();
    std::size_t healed_classes = 0;
    double max_discrete_rel_err = 0.0;
    double max_closed_rel_err = 0.0;
    for (const auto& rec : det.recovery) {
      // Only classes whose recovery finished inside the horizon have a
      // measured residual to compare.
      if (rec.return_epoch < 0 || rec.recovery_epochs < 0) continue;
      ++healed_classes;
      const double closed = analytic::residual_loss(
          rec.score_at_return, rec.stake_at_return_eth, acfg);
      const double discrete = analytic::residual_loss_discrete(
          rec.score_at_return, rec.stake_at_return_eth, acfg);
      const std::string tag = "class_b" + std::to_string(rec.from_branch);
      out->add_metric(tag + "_score_at_return", rec.score_at_return);
      out->add_metric(tag + "_residual_loss_eth", rec.residual_loss_eth);
      out->add_metric(tag + "_residual_loss_closed_eth", closed);
      out->add_metric(tag + "_residual_loss_discrete_eth", discrete);
      if (rec.stake_at_return_eth > 0.0) {
        max_discrete_rel_err = std::max(
            max_discrete_rel_err,
            std::fabs(discrete - rec.residual_loss_eth) /
                rec.stake_at_return_eth);
      }
      max_closed_rel_err =
          std::max(max_closed_rel_err,
                   std::fabs(closed - rec.residual_loss_eth) / (closed + 0.01));
    }
    out->add_metric("healed_classes", static_cast<double>(healed_classes));
    out->add_metric("max_class_discrete_rel_err", max_discrete_rel_err);
    out->add_metric("max_class_closed_rel_err", max_closed_rel_err);
  });
}

// --- flaky-network ------------------------------------------------------
// The fault harness on the event-queue path: scripted latency/loss
// weather over the slot-level protocol simulator.

void register_flaky_network(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "flaky-network",
      "Scripted network weather on the slot-level protocol simulator: "
      "a latency episode stretches per-message jitter beyond the "
      "synchrony bound and a loss episode drops messages from a "
      "dedicated weather RNG lane (the jitter stream untouched), "
      "measuring finality stalls, message loss, and the leak trigger; "
      "sweep latency_factor x loss_drop");
  add_region_slot_params(spec, 8, 10)
      .add_double("latency_factor",
                  "jitter stretch on matching links while the latency "
                  "episode is active (1 = off)",
                  3.0, 1.0, 100.0)
      .add_int("latency_from_epoch", "latency episode start epoch", 2, 0, 256)
      .add_int("latency_span_epochs",
               "latency episode length in epochs (0 = no episode)", 2, 0, 256)
      .add_string("latency_link", "links the latency episode afflicts",
                  "all", {"all", "intra", "cross"})
      .add_double("loss_drop",
                  "per-message drop probability while the loss episode is "
                  "active (0 = off)",
                  0.15, 0.0, 1.0)
      .add_int("loss_from_epoch", "loss episode start epoch", 4, 0, 256)
      .add_int("loss_span_epochs",
               "loss episode length in epochs (0 = no episode)", 2, 0, 256)
      .add_string("loss_link", "links the loss episode afflicts", "all",
                  {"all", "intra", "cross"});
  add_fanout(spec, 7);
  add_faults_param(spec);
  r.add(std::move(spec), [](const ParamSet& p, ScenarioResult* out) {
    sim::SlotSimConfig base = slot_config(p);
    base.p0 = p.get_double("p0");
    base.gst_epoch = p.get_double("gst_epoch");

    // Build the weather timeline from the episode knobs (or take the
    // `faults` schedule verbatim) and compile it to per-link episodes
    // in simulated seconds.
    faults::FaultSchedule knobs;
    const double factor = p.get_double("latency_factor");
    const auto latency_span = p.get_int("latency_span_epochs");
    if (factor != 1.0 && latency_span > 0) {
      knobs.events.push_back(faults::LatencyEpisode{
          static_cast<double>(p.get_int("latency_from_epoch")),
          static_cast<double>(latency_span),
          link_from_name(p.get_string("latency_link")), factor});
    }
    const double drop = p.get_double("loss_drop");
    const auto loss_span = p.get_int("loss_span_epochs");
    if (drop > 0.0 && loss_span > 0) {
      knobs.events.push_back(faults::LossEpisode{
          static_cast<double>(p.get_int("loss_from_epoch")),
          static_cast<double>(loss_span),
          link_from_name(p.get_string("loss_link")), drop});
    }
    std::stable_sort(knobs.events.begin(), knobs.events.end(),
                     [](const faults::FaultEvent& a,
                        const faults::FaultEvent& b) {
                       return faults::event_start(a) < faults::event_start(b);
                     });
    const faults::FaultSchedule sched = resolve_schedule(p, std::move(knobs));
    net::NetworkConfig weather;
    weather.num_nodes = 1;  // scratch: only the episode vectors are read
    faults::apply_network(
        sched, static_cast<double>(kSlotsPerEpoch * kSecondsPerSlot),
        &weather);
    base.latency_episodes = std::move(weather.latency_episodes);
    base.loss_episodes = std::move(weather.loss_episodes);

    const std::vector<sim::SlotSimResult> trials = run_slot_trials(base, p);

    RunningStats finalized, stalls, delivered, dropped;
    double dropped_sum = 0.0;
    double sent_to_drop_sum = 0.0;
    Table rows({"trial", "finalized_epoch", "finality_stall_epochs",
                "messages_delivered", "messages_dropped", "leak_observed"});
    for (std::size_t i = 0; i < trials.size(); ++i) {
      const auto& t = trials[i];
      const auto fin = static_cast<double>(first_or_zero(t.finalized_epoch));
      finalized.add(fin);
      stalls.add(static_cast<double>(t.finality_stall_epochs));
      delivered.add(static_cast<double>(t.messages_delivered));
      dropped.add(static_cast<double>(t.messages_dropped));
      dropped_sum += static_cast<double>(t.messages_dropped);
      sent_to_drop_sum += static_cast<double>(t.messages_dropped) +
                          static_cast<double>(t.messages_delivered);
      rows.add_row({std::to_string(i), Table::fmt_exact(fin),
                    std::to_string(t.finality_stall_epochs),
                    std::to_string(t.messages_delivered),
                    std::to_string(t.messages_dropped),
                    t.leak_observed ? "true" : "false"});
    }
    out->add_metric("mean_finalized_epoch", finalized.mean());
    out->add_metric("mean_finality_stall_epochs", stalls.mean());
    out->add_metric("mean_messages_delivered", delivered.mean());
    out->add_metric("mean_messages_dropped", dropped.mean());
    out->add_metric("dropped_fraction",
                    sent_to_drop_sum > 0.0 ? dropped_sum / sent_to_drop_sum
                                           : 0.0);
    out->add_metric("leak_observed_fraction", leak_fraction(trials));
    out->add_stats("finalized_epoch", finalized);
    out->add_stats("messages_dropped", dropped);
    out->trials = std::move(rows);
  });
}

// --- table1 -------------------------------------------------------------

void register_table1(ScenarioRegistry& r) {
  ScenarioSpec spec(
      "table1",
      "Paper Table 1: the five analysed scenarios with their outcomes "
      "and a quantitative witness each, computed end to end; "
      "deterministic, paths/seed ignored");
  add_ignored_fanout(spec);
  r.add(std::move(spec), [](const ParamSet&, ScenarioResult* out) {
    const auto cfg = analytic::AnalyticConfig::paper();
    Table rows({"scenario", "byzantine behaviour", "outcome", "witness",
                "witness_value"});
    for (const auto& row : analytic::table1(cfg)) {
      rows.add_row({row.id, row.name, row.outcome, row.witness_label,
                    Table::fmt_exact(row.witness)});
      out->add_metric("witness_" + row.id, row.witness);
    }
    out->trials = std::move(rows);
  });
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  register_bouncing_mc(registry);
  register_attack_lifetime(registry);
  register_population_ensemble(registry);
  register_partition_trials(registry);
  register_duty_cycle(registry);
  register_recovery(registry);
  register_slot_protocol(registry);
  register_table1(registry);
  register_balancing_attack(registry);
  register_semiactive_sweep(registry);
  register_multi_partition_recovery(registry);
  register_cascading_partitions(registry);
  register_flaky_network(registry);
}

}  // namespace leak::scenario
