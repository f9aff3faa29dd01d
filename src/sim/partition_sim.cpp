#include "src/sim/partition_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "src/runner/trial_runner.hpp"
#include "src/support/random.hpp"

namespace leak::sim {

namespace {

constexpr double kGweiPerEth = 1e9;

/// Does the Byzantine stake count toward the active side of the branch's
/// ratio (Eqs 8 and 10 count it; Eq 5 has none)?
bool byzantine_counts_active(Strategy s) {
  return s == Strategy::kSlashable || s == Strategy::kSemiActiveFinalize;
}

void validate(const PartitionSimConfig& cfg) {
  if (cfg.n_validators == 0) {
    throw std::invalid_argument("run_partition_sim: no validators");
  }
  if (cfg.beta0 < 0.0 || cfg.beta0 >= 1.0 || cfg.p0 < 0.0 || cfg.p0 > 1.0) {
    throw std::invalid_argument("run_partition_sim: bad proportions");
  }
  if (cfg.branches < 2 || cfg.branches > cfg.n_validators) {
    throw std::invalid_argument("run_partition_sim: bad branch count");
  }
  // Trajectories sample at t % trajectory_stride: 0 would divide by 0.
  if (cfg.trajectory_stride == 0) {
    throw std::invalid_argument(
        "run_partition_sim: trajectory_stride must be >= 1");
  }
  // p0 only shapes the two-branch split; silently ignoring it with
  // k > 2 branches turned real config mistakes into plausible results.
  if (cfg.branches > 2 && cfg.p0 != 0.5) {
    throw std::invalid_argument(
        "run_partition_sim: p0 only shapes the two-branch split; with "
        "branches > 2 the honest assignment is uniform over the branches "
        "-- leave p0 at its 0.5 default");
  }
  if (!cfg.windows.empty()) {
    if (cfg.windows.size() != cfg.branches - 1) {
      throw std::invalid_argument(
          "run_partition_sim: windows must have exactly branches-1 "
          "entries (got " + std::to_string(cfg.windows.size()) + " for " +
          std::to_string(cfg.branches) + " branches)");
    }
    for (const BranchWindow& w : cfg.windows) {
      if (w.open_epoch < 1) {
        throw std::invalid_argument(
            "run_partition_sim: branch open_epoch must be >= 1");
      }
      if (w.heal_epoch != 0 && w.heal_epoch <= w.open_epoch) {
        throw std::invalid_argument(
            "run_partition_sim: heal_epoch must be after open_epoch");
      }
    }
  }
  for (const OutageWindow& o : cfg.outages) {
    if (o.span_epochs == 0 || o.cohort <= 0.0 || o.cohort > 1.0) {
      throw std::invalid_argument(
          "run_partition_sim: outage needs span_epochs >= 1 and a cohort "
          "in (0, 1]");
    }
  }
}

/// Byzantine validator count implied by the configured proportion.
std::uint32_t byzantine_count(const PartitionSimConfig& cfg) {
  return static_cast<std::uint32_t>(
      std::llround(cfg.beta0 * static_cast<double>(cfg.n_validators)));
}

constexpr std::uint32_t kNoClass = ~0U;

/// The validator classes of one run.  The honest index range
/// [0, n_honest) is cut into segments at every outage cohort's boundary
/// round(cohort * n_honest); class s * branches + c holds the honest
/// validators of segment s on branch class c, and the last class the
/// Byzantine validators [n_honest, n).  Members of a class start with
/// the same balance and score and see the same activity every epoch,
/// so on each branch one record describes them all (see
/// docs/ARCHITECTURE.md, "Class-aggregated partition state").
struct ClassLayout {
  std::uint32_t branches = 0;
  /// Segment boundaries, ascending: segment s is [cuts[s], cuts[s+1]).
  std::vector<std::uint32_t> cuts;
  /// Members per class; empty classes never take part.
  std::vector<std::uint32_t> size;
  /// Per branch class c: the class holding c's representative (its
  /// lowest honest index, so its class's first member to exit), or
  /// kNoClass when c has no member.
  std::vector<std::uint32_t> representative_class;
  /// Churn mode only: the class of every validator index.
  std::vector<std::uint32_t> class_of;

  [[nodiscard]] std::uint32_t byzantine() const {
    return static_cast<std::uint32_t>(size.size() - 1);
  }
  /// Whether honest class j sits out under an outage of the honest
  /// prefix [0, outage_cut).  Outage cuts are segment boundaries, so a
  /// segment lies wholly inside or outside the prefix.
  [[nodiscard]] bool in_outage(std::uint32_t j,
                               std::uint32_t outage_cut) const {
    return cuts[j / branches + 1] <= outage_cut;
  }
};

ClassLayout build_layout(const PartitionSimConfig& cfg, std::uint32_t n_byz,
                         const std::vector<std::uint8_t>& branch_of_honest,
                         bool with_class_of) {
  const auto n_honest = cfg.n_validators - n_byz;
  const auto k = cfg.branches;
  ClassLayout layout;
  layout.branches = k;
  layout.cuts = {0, n_honest};
  for (const OutageWindow& o : cfg.outages) {
    layout.cuts.push_back(std::min(
        n_honest, static_cast<std::uint32_t>(std::llround(
                      o.cohort * static_cast<double>(n_honest)))));
  }
  std::sort(layout.cuts.begin(), layout.cuts.end());
  layout.cuts.erase(std::unique(layout.cuts.begin(), layout.cuts.end()),
                    layout.cuts.end());
  layout.size.assign((layout.cuts.size() - 1) * k + 1, 0);
  layout.size.back() = n_byz;
  layout.representative_class.assign(k, kNoClass);
  if (with_class_of) {
    layout.class_of.assign(cfg.n_validators, layout.byzantine());
  }
  std::uint32_t s = 0;
  for (std::uint32_t i = 0; i < n_honest; ++i) {
    while (i >= layout.cuts[s + 1]) ++s;
    const std::uint8_t c = branch_of_honest[i];
    const std::uint32_t j = s * k + c;
    if (layout.representative_class[c] == kNoClass) {
      layout.representative_class[c] = j;
    }
    ++layout.size[j];
    if (with_class_of) layout.class_of[i] = j;
  }
  return layout;
}

/// One class's record on one branch.  Live members share the balance
/// and score; exited members are an index-ordered prefix of the class
/// and keep the balance they exited with, summed in
/// BranchState::exited_balance.
struct ClassState {
  Gwei balance = Gwei::from_eth(kInitialStakeEth);
  std::uint64_t score = 0;
  std::uint32_t live = 0;
  std::uint32_t exited = 0;
  /// Balance the class's lowest index exited with (set at its first
  /// exit): the representative's frozen balance.
  Gwei lead_exit_balance{};
};

/// Combined balance of a class's live members (integer Gwei, so exactly
/// the sum over the members).
Gwei live_stake(const ClassState& cs) {
  return Gwei{std::uint64_t{cs.live} * cs.balance.value()};
}

/// One branch's view of the validator set: a record per class.
struct BranchState {
  std::vector<ClassState> cls;
  Gwei exited_balance{};
  /// Churn mode: the FIFO exit queue of validator indices, and per
  /// class whether its live members are in it.
  std::deque<std::uint32_t> exit_queue;
  std::vector<std::uint8_t> queued;

  /// Every validator's balance, exited ones at their frozen balance.
  [[nodiscard]] Gwei total_balance() const {
    Gwei total = exited_balance;
    for (const ClassState& cs : cls) total += live_stake(cs);
    return total;
  }

  void exit_members(std::uint32_t j, std::uint32_t m) {
    ClassState& cs = cls[j];
    if (cs.exited == 0) cs.lead_exit_balance = cs.balance;
    cs.live -= m;
    cs.exited += m;
    exited_balance += Gwei{std::uint64_t{m} * cs.balance.value()};
  }
};

/// Core scenario run over an explicit per-honest-validator branch
/// assignment (honest indices [0, n_honest); branch_of_honest[i] in
/// [0, branches)).  Byzantine validators occupy indices [n_honest, n).
/// Each branch holds one record per class (ClassLayout), so an epoch
/// costs O(branches x classes) whatever n is.
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

  // Per-branch open/heal epochs from the window schedule (no windows:
  // every branch opens at epoch 1 and never heals; heal 0 = never).
  // Branch b is frozen after its heal: from then on its honest class
  // attests on branch 0.  Before its open the branch does not exist
  // yet and its honest class also attests on branch 0.
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

  // With healing enabled the penalty gate is the consensus spec's
  // (score > 0 keeps paying after finalization resumes), so the recovery
  // tail matches analytic::recovery; without healing it stays the
  // paper's leak-only penalty gate (docs/MODEL.md).
  penalties::SpecConfig spec = cfg.spec;
  if (healing) spec.inactivity_penalty_tracks_score = true;
  const bool churn = spec.use_churn_limit;
  const penalties::ChurnConfig churn_cfg{spec.min_per_epoch_churn_limit,
                                         spec.churn_limit_quotient};

  const ClassLayout layout =
      build_layout(cfg, n_byz, branch_of_honest, churn);
  const std::uint32_t byz = layout.byzantine();
  const std::uint32_t n_classes = byz + 1;
  BranchState initial;
  initial.cls.resize(n_classes);
  for (std::uint32_t j = 0; j < n_classes; ++j) {
    initial.cls[j].live = layout.size[j];
  }
  initial.queued.assign(n_classes, 0);
  std::vector<BranchState> state(k, initial);

  // Late opens (and scheduled outages) make branch 0's finality
  // non-monotone: an open after finalization resumed strips active
  // stake away and re-enters the leak.
  bool cascading = !cfg.outages.empty();
  for (std::uint32_t b = 1; b < k; ++b) {
    cascading = cascading || open_at[b] > 1;
  }

  std::vector<std::uint8_t> leak_over(k, 0);
  std::int64_t leak_end_epoch = -1;  ///< branch-0 finalization (with heals)
  /// Per branch: first epoch of the current supermajority streak.
  std::vector<std::int64_t> sm_streak_start(k, -1);

  // Recovery bookkeeping: one pending outcome per honest class that is
  // due to return (branches 1..k-1), plus the branch-wide totals.
  std::vector<RecoveryOutcome> pending(k);
  for (std::uint32_t b = 0; b < k; ++b) {
    pending[b].from_branch = b;
    pending[b].class_size = res.n_honest_per_branch[b];
  }
  bool recovery_totals_recorded = false;
  Gwei recovery_total_start{};

  // Reused across every (epoch, branch) pair.  class_active[c] is the
  // activity of honest branch class c on the branch being processed,
  // on[j] that of ClassLayout class j.
  std::vector<std::uint8_t> class_active(k, 0);
  std::vector<std::uint8_t> on(n_classes, 0);
  std::vector<std::uint8_t> requested(n_classes, 0);
  std::vector<std::uint32_t> seen(n_classes, 0);

  for (std::size_t t = 1; t <= cfg.max_epochs; ++t) {
    const Epoch epoch{t};
    // Cascading opens: a branch opening after epoch 1 forks the
    // canonical chain's class records (balances, scores, exits) as of
    // the fork epoch.  Epoch-1 opens keep the pristine initial state,
    // the paper's simultaneous partition.  The fork's exit queue starts
    // empty: the branch was never processed.
    for (std::uint32_t b = 1; b < k; ++b) {
      if (opened[b] == 0 && t >= open_at[b]) {
        opened[b] = 1;
        if (t > 1) {
          state[b].cls = state[0].cls;
          state[b].exited_balance = state[0].exited_balance;
        }
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

    // Scheduled outages: the afflicted honest prefix sits out this
    // epoch on every branch (empty unless a fault schedule scripts an
    // outage).
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
      BranchState& st = state[b];
      auto& out = res.branch[b];
      /// Branch 0 is past finalization and in the recovery tail.
      const bool recovering = b == 0 && leak_end_epoch >= 0;

      // On the canonical branch, snapshot each returned class the first
      // epoch it recovers (healed and leak over), before this epoch's
      // penalties: the tail from here is exactly the
      // analytic::residual_loss recurrence.
      if (recovering) {
        for (std::uint32_t c = 1; c < k; ++c) {
          auto& rec = pending[c];
          if (rec.return_epoch >= 0 || rec.ejected_before_return) continue;
          const std::uint32_t rc = layout.representative_class[c];
          if (healed[c] == 0 || rc == kNoClass) continue;
          const ClassState& rep = st.cls[rc];
          if (rep.exited > 0) {
            rec.ejected_before_return = true;
            continue;
          }
          rec.return_epoch = static_cast<std::int64_t>(t);
          rec.score_at_return = static_cast<double>(rep.score);
          rec.stake_at_return_eth =
              static_cast<double>(rep.balance.value()) / kGweiPerEth;
        }
        if (!recovery_totals_recorded) {
          recovery_totals_recorded = true;
          recovery_total_start = st.total_balance();
        }
      }

      // Activity on branch b this epoch, per class: the Byzantine class
      // follows the strategy (it is never inside the outage prefix,
      // which is capped at n_honest); an honest class sits out while
      // its segment lies in the outage prefix and otherwise looks its
      // branch class up in the table.
      std::uint8_t byz_active = 0;
      if (recovering) {
        byz_active = 1;  // the partition is over; everyone attests
      } else {
        switch (cfg.strategy) {
          case Strategy::kNone:
            byz_active = 0;  // unreachable unless beta0 rounds to 0 byz
            break;
          case Strategy::kSlashable:
            byz_active = 1;
            break;
          case Strategy::kSemiActiveFinalize:
          case Strategy::kSemiActiveOverthrow:
            byz_active = t % k == b ? 1 : 0;
            break;
        }
      }
      for (std::uint32_t c = 0; c < k; ++c) {
        // A class is active on its own branch; healed and not-yet-
        // opened classes attest on the canonical branch.
        class_active[c] =
            (c == b || (b == 0 && (healed[c] != 0 || opened[c] == 0))) ? 1
                                                                       : 0;
      }
      for (std::uint32_t j = 0; j < byz; ++j) {
        on[j] = layout.in_outage(j, outage_cut) ? 0 : class_active[j % k];
      }
      on[byz] = byz_active;

      // Penalties, scores and ejections for this epoch, once per class.
      // During the partition nothing has finalized since genesis; once
      // branch 0 finalizes, finality advances every epoch and the
      // branch leaves the leak.
      const Epoch last_finalized =
          recovering ? Epoch{t - 1} : Epoch{0};
      const bool leaking = penalties::is_leaking(epoch, last_finalized, spec);
      bool honest_ejected = false;
      bool new_exit_requests = false;
      for (std::uint32_t j = 0; j < n_classes; ++j) {
        ClassState& cs = st.cls[j];
        if (cs.live == 0) continue;
        if (!penalties::step_record(cs.balance, cs.score, on[j] != 0,
                                    leaking, spec)
                 .depleted) {
          continue;
        }
        // Ejection of depleted validators: the whole class at once in
        // the paper's model, queued through the churn limit when
        // enabled (re-requests of queued members are no-ops).
        if (!churn) {
          honest_ejected = honest_ejected || j != byz;
          st.exit_members(j, cs.live);
        } else if (st.queued[j] == 0) {
          st.queued[j] = 1;
          requested[j] = 1;
          new_exit_requests = true;
        }
      }
      if (churn) {
        // The FIFO queue orders requests by epoch, then index.  A
        // class's live members deplete in the same epoch and join in
        // index order, so its exits are always an index-ordered prefix:
        // enqueue every member past that prefix.
        if (new_exit_requests) {
          std::fill(seen.begin(), seen.end(), 0);
          for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t j = layout.class_of[i];
            if (requested[j] != 0 && seen[j]++ >= st.cls[j].exited) {
              st.exit_queue.push_back(i);
            }
          }
          std::fill(requested.begin(), requested.end(), 0);
        }
        std::uint64_t live = 0;
        for (const ClassState& cs : st.cls) live += cs.live;
        const std::uint64_t limit = penalties::churn_limit(live, churn_cfg);
        for (std::uint64_t popped = 0;
             popped < limit && !st.exit_queue.empty(); ++popped) {
          const std::uint32_t j = layout.class_of[st.exit_queue.front()];
          st.exit_queue.pop_front();
          honest_ejected = honest_ejected || j != byz;
          st.exit_members(j, 1);
        }
      }
      if (honest_ejected && out.honest_ejection_epoch < 0) {
        out.honest_ejection_epoch = static_cast<std::int64_t>(t);
      }

      // The ratio counts the stake classes per the paper's Eqs 5/8/10:
      // honest actives plus (strategy-dependent) the Byzantine stake,
      // over all non-exited stake.
      const bool byz_counts =
          recovering || byzantine_counts_active(cfg.strategy);
      Gwei total{};
      Gwei active_side{};
      Gwei byz_side{};
      for (std::uint32_t j = 0; j < n_classes; ++j) {
        const Gwei stake = live_stake(st.cls[j]);
        total += stake;
        if (j == byz) {
          byz_side += stake;
          if (byz_counts) active_side += stake;
        } else if (on[j] != 0) {
          active_side += stake;
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

      // Supermajority and finalization bookkeeping.
      const bool supermajority =
          3 * static_cast<__uint128_t>(active_side.value()) >
          2 * static_cast<__uint128_t>(total.value());
      if (supermajority && out.supermajority_epoch < 0) {
        out.supermajority_epoch = static_cast<std::int64_t>(t);
      }
      // The overthrow strategy withholds the finalizing votes — but once
      // every branch has healed there is a single component whose honest
      // supermajority finalizes without Byzantine help.
      const bool wants_finalize =
          cfg.strategy != Strategy::kSemiActiveOverthrow ||
          (b == 0 && all_healed);
      // Every branch finalizes the second epoch of a supermajority
      // streak: one extra epoch of supermajority justifies the next
      // checkpoint and finalizes the previous one (Section 5.1).  A
      // streak, not the first supermajority epoch, because an outage
      // or a late open can break a supermajority before it finalizes.
      if (supermajority) {
        if (sm_streak_start[b] < 0) {
          sm_streak_start[b] = static_cast<std::int64_t>(t);
        }
      } else {
        sm_streak_start[b] = -1;
        if (b == 0 && leak_end_epoch >= 0) {
          // Finality lost again; the next recovery tail re-snapshots
          // its starting balances.
          leak_end_epoch = -1;
          recovery_totals_recorded = false;
          recovery_total_start = Gwei{};
        }
      }
      const bool finalizes =
          wants_finalize && sm_streak_start[b] >= 0 &&
          t > static_cast<std::size_t>(sm_streak_start[b]);
      if (b == 0 && (cascading || healing)) {
        // The canonical branch of a healing or re-entrant run stays
        // live after finalizing: a later open may re-partition it.
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

      // Recovery-tail bookkeeping on the canonical branch.
      if (recovering) {
        for (std::uint32_t c = 1; c < k; ++c) {
          auto& rec = pending[c];
          if (rec.return_epoch < 0 || rec.recovery_epochs >= 0) continue;
          const ClassState& rep = st.cls[layout.representative_class[c]];
          const bool rep_exited = rep.exited > 0;
          if (rep_exited || rep.score == 0) {
            rec.recovery_epochs =
                static_cast<std::int64_t>(t) - rec.return_epoch + 1;
            const Gwei rep_balance =
                rep_exited ? rep.lead_exit_balance : rep.balance;
            rec.residual_loss_eth =
                rec.stake_at_return_eth -
                static_cast<double>(rep_balance.value()) / kGweiPerEth;
          }
        }
        if (all_healed && res.recovery_complete_epoch < 0 &&
            std::none_of(st.cls.begin(), st.cls.end(),
                         [](const ClassState& cs) {
                           return cs.live > 0 && cs.score > 0;
                         })) {
          res.recovery_complete_epoch = static_cast<std::int64_t>(t);
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

  // Total recovery-tail loss across the whole validator set (exited
  // validators keep their frozen balance, so the sum is loss-exact).
  if (recovery_totals_recorded) {
    res.residual_loss_total_eth =
        static_cast<double>(recovery_total_start.value() -
                            state[0].total_balance().value()) /
        kGweiPerEth;
  }
  for (std::uint32_t b = 1; b < k; ++b) {
    if (pending[b].healed_epoch >= 0 || pending[b].ejected_before_return) {
      res.recovery.push_back(pending[b]);
    }
  }

  // Conflicting finalization: the epoch the second branch finalized a
  // checkpoint conflicting with another branch's (for two branches:
  // max(f1, f2), the paper's definition).
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
                  [](const BranchOutcome& br) {
                    return br.beta_peak > 1.0 / 3.0;
                  });
  return res;
}

/// Deterministic honest split: branch 1 gets round(p0 * n_honest) for
/// the two-branch case (the paper's p0 split); k > 2 splits into
/// equal-size contiguous chunks.
std::vector<std::uint8_t> deterministic_split(const PartitionSimConfig& cfg,
                                              std::uint32_t n_honest) {
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
  return branch_of_honest;
}

/// The scalars of one trial that survive into the aggregates.
struct TrialOutcome {
  std::int64_t conflict_epoch = -1;
  double beta_peak = 0.0;
  std::uint8_t exceeded_both = 0;
  double residual_loss_eth = 0.0;
  std::int64_t recovery_epoch = -1;
};

TrialOutcome trial_outcome(const PartitionSimConfig& base, std::uint32_t n_byz,
                           const std::vector<std::uint8_t>& branch_of_honest) {
  const auto r = run_partition_core(base, n_byz, branch_of_honest);
  TrialOutcome out;
  out.conflict_epoch = r.conflicting_finalization_epoch;
  for (const auto& br : r.branch) {
    out.beta_peak = std::max(out.beta_peak, br.beta_peak);
  }
  out.exceeded_both = r.beta_exceeded_third_both ? 1 : 0;
  out.residual_loss_eth = r.residual_loss_total_eth;
  out.recovery_epoch = r.recovery_complete_epoch;
  return out;
}

/// Draw trial `trial`'s honest branch assignment into `branch_of_honest`.
void draw_split(const PartitionSimConfig& base, const StreamSeeder& seeder,
                std::size_t trial, std::vector<std::uint8_t>* branch_of_honest) {
  Rng rng = seeder.stream(trial);
  const auto k = base.branches;
  for (auto& b : *branch_of_honest) {
    // Two branches draw the paper's bernoulli(p0) split; k > 2
    // assigns uniformly over the branches.
    b = k == 2 ? (rng.bernoulli(base.p0) ? 0 : 1)
               : static_cast<std::uint8_t>(rng.uniform_index(k));
  }
}

/// Order-fed aggregate of the trials driver: integer counts plus
/// ascending-trial double sums.
struct PartitionTally {
  std::size_t conflicting = 0;
  std::size_t exceeded = 0;
  std::size_t recovered = 0;
  double conflict_epoch_sum = 0.0;
  double residual_sum = 0.0;
  double recovery_epoch_sum = 0.0;
  void add(const TrialOutcome& out) {
    if (out.conflict_epoch >= 0) {
      ++conflicting;
      conflict_epoch_sum += static_cast<double>(out.conflict_epoch);
    }
    if (out.exceeded_both != 0) ++exceeded;
    residual_sum += out.residual_loss_eth;
    if (out.recovery_epoch >= 0) {
      ++recovered;
      recovery_epoch_sum += static_cast<double>(out.recovery_epoch);
    }
  }
};

}  // namespace

PartitionSimResult run_partition_sim(const PartitionSimConfig& cfg) {
  validate(cfg);
  const auto n_byz = byzantine_count(cfg);
  const auto n_honest = cfg.n_validators - n_byz;
  return run_partition_core(cfg, n_byz, deterministic_split(cfg, n_honest));
}

PartitionTrialsResult run_partition_trials(const PartitionTrialsConfig& cfg) {
  validate(cfg.base);
  if (cfg.trials == 0) {
    throw std::invalid_argument("run_partition_trials: no trials");
  }
  const auto n_byz = byzantine_count(cfg.base);
  const auto n_honest = cfg.base.n_validators - n_byz;

  // Trial i always draws from the (seed, i) stream, so the result is
  // bit-identical for every (block, threads) combination.
  const StreamSeeder seeder(cfg.seed);
  const runner::TrialRunner pool(cfg.threads);
  PartitionTrialsResult res;
  res.trials = cfg.trials;
  // Block-scheduled fan-out straight into the result's preallocated
  // slabs (only the scalars the trials aggregate survive a trial, never
  // the full per-branch trajectories), then aggregate in trial order.
  res.conflict_epochs.assign(cfg.trials, -1);
  res.beta_peaks.assign(cfg.trials, 0.0);
  res.residual_losses_eth.assign(cfg.trials, 0.0);
  res.recovery_epochs.assign(cfg.trials, -1);
  std::vector<std::uint8_t> exceeded_both(cfg.trials, 0);
  const auto run_block = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint8_t> branch_of_honest(n_honest);
    for (std::size_t trial = begin; trial < end; ++trial) {
      draw_split(cfg.base, seeder, trial, &branch_of_honest);
      const auto out = trial_outcome(cfg.base, n_byz, branch_of_honest);
      res.conflict_epochs[trial] = out.conflict_epoch;
      res.beta_peaks[trial] = out.beta_peak;
      exceeded_both[trial] = out.exceeded_both;
      res.residual_losses_eth[trial] = out.residual_loss_eth;
      res.recovery_epochs[trial] = out.recovery_epoch;
    }
  };
  pool.run_blocks(cfg.trials, cfg.block, run_block);
  PartitionTally tally;
  for (std::size_t trial = 0; trial < cfg.trials; ++trial) {
    tally.add(TrialOutcome{res.conflict_epochs[trial], res.beta_peaks[trial],
                           exceeded_both[trial], res.residual_losses_eth[trial],
                           res.recovery_epochs[trial]});
  }

  const double n = static_cast<double>(cfg.trials);
  res.conflicting_fraction = static_cast<double>(tally.conflicting) / n;
  res.beta_exceeded_fraction = static_cast<double>(tally.exceeded) / n;
  res.mean_conflict_epoch =
      tally.conflicting > 0
          ? tally.conflict_epoch_sum / static_cast<double>(tally.conflicting)
          : 0.0;
  res.recovered_fraction = static_cast<double>(tally.recovered) / n;
  res.mean_residual_loss_eth = tally.residual_sum / n;
  res.mean_recovery_epoch =
      tally.recovered > 0
          ? tally.recovery_epoch_sum / static_cast<double>(tally.recovered)
          : 0.0;
  return res;
}

}  // namespace leak::sim
