// Within-run validator cohorts of the attack-lifetime and population
// drivers.  Every validator of a run shares ONE serial RNG stream, the
// run's, which it consumes in ascending validator index order, skipping
// validators already ejected when the epoch began (a validator is
// ejected exactly when its stake is 0.0: the flush sets it, and a live
// stake stays above the positive threshold).
//
// CohortTile, the drivers' kernel, vectorizes across runs instead of
// across one run's validators: a tile's lanes are independent runs,
// one lane per element of a vector (at most 8 with AVX-512, 4 with
// AVX, 2 on baseline SSE2; lanes_for() picks the narrowest that holds
// a number of runs), each with its own stream.  A validator step costs
// the same whatever number of lanes is live, so the drivers size tiles
// from each worker's share of the runs.  State is
// validator-major ([validator][lane] stake and score, 16 B per lane and
// validator), so one validator step is one vector op per quantity: it
// advances each lane's stream under a live mask (stake != 0), adds the
// stake as it stands to each lane's sum in ascending validator order,
// and applies the Eq 2 penalty, the floored Eq 1 select and the flush
// in place (the lane step of lane_step.hpp, shared with the stake
// batch: a power-of-two quotient's penalty is a multiply by its exact
// reciprocal, any other quotient's a division).  Fusing the draw into
// the update is safe because a lane's update reads only its own draw.
// Every live lane's draws, sums and updates are the scalar oracle's
// values in the scalar order, so the drivers stay bit-identical to it;
// an ejected validator or idle lane holds stake at exactly +0.0 and its
// stale draw feeds only a dead score, so the lockstep work is
// unobservable.  compact() moves live lanes into a narrower tile, which
// the attack driver does as a block's runs end.
//
// SemiActiveByzantine, below, keeps the true division whatever the
// quotient: it is one scalar op per run-epoch, inlined into driver TUs
// that are not built with -ffp-contract=off, where a multiply-subtract
// could be fused into an FMA on a target whose baseline ISA has one.
//
// LeakCohort is the earlier one-run SoA draw/update split, with the
// serial draw pass that carries the stake sum.  No driver runs it; it
// remains for the per-layer kernel probes of perfbench, and goes with
// them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/analytic/config.hpp"
#include "src/support/random.hpp"

namespace leak::kernel {

/// Validator-major stake/score state for a tile of independent runs
/// (see the file comment).  One instance is reused across the tiles a
/// worker claims; reset() re-initializes it, reallocating only when it
/// grows.  Memory: lanes x validators x 16 B.
class CohortTile {
 public:
  /// The widest tile on the target this kernel was built for.
  [[nodiscard]] static std::size_t max_lanes();

  /// The narrowest tile that holds `runs` runs: the power of two at or
  /// above it, at least 4 lanes (2 on a target without 256-bit vectors)
  /// and at most max_lanes().
  [[nodiscard]] static std::size_t lanes_for(std::size_t runs);

  /// n validators per run in tiles of `lanes` runs (a lanes_for()
  /// width), every lane idle (stake 0).
  void reset(std::size_t n, std::size_t lanes,
             const analytic::AnalyticConfig& model);

  /// Lane `lane` starts a run on the stream Rng(seed): every validator
  /// at the initial stake, score 0.
  void start(std::size_t lane, std::uint64_t seed);

  /// Lane `lane` idles: every validator's stake 0, so epoch() no longer
  /// advances its stream.
  void stop(std::size_t lane);

  /// The lanes with keep[lane] != 0 (keep spans the current width and
  /// marks at most `lanes` lanes) move, in order, to the first lanes of
  /// a tile `lanes` wide (a lanes_for() width no wider than the
  /// current one), each with its stakes, scores and stream as they
  /// stand, so its run plays on unchanged; the other lanes idle.  In
  /// place, with no allocation.
  void compact(std::size_t lanes, const std::uint8_t* keep);

  /// One raw draw from every lane's stream into out[0, lanes) (the
  /// attack's per-epoch lottery, drawn before the validators).  Idle
  /// lanes advance too; their draws are never read.
  void draw(std::uint64_t* out);

  /// One epoch of the Figure 8 dynamics on every lane, validators in
  /// ascending order: sums[lane] receives the lane's stake sum as it
  /// stood before the epoch (the scalar oracle's total), and each live
  /// validator takes one draw from its lane's stream and one update.
  void epoch(const analytic::AnalyticConfig& model, double p0, double* sums);

  /// Stake sum of every lane, in ascending validator order, into
  /// sums[0, lanes).
  void stake_sums(double* sums) const;

 private:
  std::size_t n_ = 0;
  std::size_t lanes_ = 1;
  double initial_stake_ = 0.0;
  std::vector<double> stake_;  ///< [validator][lane]
  std::vector<double> score_;  ///< [validator][lane]
  /// xoshiro256** state, [word][lane].
  std::vector<std::uint64_t> stream_;
};

/// Structure-of-arrays stake/score state for one run's honest cohort
/// (kept for the perfbench kernel probes; see the file comment).
class LeakCohort {
 public:
  /// All n validators at the initial stake, score 0; the model's
  /// initial stake is positive, so every lane starts live.
  void reset(std::size_t n, const analytic::AnalyticConfig& model);

  /// Draw pass: one raw draw from `rng` per live lane, ascending index
  /// order — the scalar per-validator rng.bernoulli(p0) sequence.  Also
  /// returns the sum of the stake lanes as they stand (before this
  /// epoch's update), equal to stake_sum().  Serial by construction:
  /// the lanes share the stream.
  double draw(Rng& rng);

  /// Update pass: one epoch of the Figure 8 dynamics over every lane
  /// (Eq 2 penalty with the previous score, Eq 1 floored score update
  /// as a select, ejection flush to exactly 0.0 as a select).
  /// Branchless and auto-vectorizable; live lanes compute the same
  /// IEEE values in the same order as the scalar oracle.
  void update(const analytic::AnalyticConfig& model, double p0);

  /// Sum of all stake lanes in ascending index order (ejected lanes
  /// contribute exactly +0.0, as in the scalar oracle's total).
  [[nodiscard]] double stake_sum() const;

 private:
  std::vector<double> stake_;
  std::vector<double> score_;
  std::vector<std::uint64_t> draw_;  ///< this epoch's raw draw per lane
};

/// The Byzantine side of a cohort run: validators semi-active on the
/// tracked branch (active on even epochs), one scalar stake per
/// validator-equivalent under the floored dynamics of a cohort lane.
struct SemiActiveByzantine {
  double stake;
  double score = 0.0;
  bool ejected = false;

  explicit SemiActiveByzantine(const analytic::AnalyticConfig& model)
      : stake(model.initial_stake) {}

  /// Eq 23: the tracked branch's Byzantine proportion, with a beta0
  /// share at `stake` and the rest at the honest mean.
  [[nodiscard]] double beta(double beta0, double honest_mean) const {
    const double byz = beta0 * stake;
    const double denom = byz + (1.0 - beta0) * honest_mean;
    return denom > 0.0 ? byz / denom : 0.0;
  }

  /// Epoch t: Eq 2 penalty, Eq 1 floored score update, ejection flush.
  void step(const analytic::AnalyticConfig& model, std::size_t t) {
    if (ejected) return;
    stake -= score * stake / model.quotient;
    if (t % 2 == 0) {
      score = std::max(score - model.score_active_decrement, 0.0);
    } else {
      score += model.score_bias;
    }
    if (stake <= model.ejection_threshold) {
      ejected = true;
      stake = 0.0;
    }
  }
};

}  // namespace leak::kernel
