// SoA draw/update split for the within-run validator cohorts of the
// attack-lifetime and population drivers.  Unlike the per-path batch
// kernel (stake_batch.hpp), every validator in a cohort shares ONE
// serial RNG stream — the run's — so the draw pass must consume draws
// in exactly the scalar order: ascending validator index, skipping
// lanes already ejected when the epoch began (a lane is ejected exactly
// when its stake is 0.0: the flush sets it, and a live stake stays
// above the positive threshold).  The pass keeps the raw 64-bit draws,
// which the update decides with the exact integer cut of
// bernoulli_cut, and sums the stakes as they stand, so the drivers
// need no separate stake_sum() walk.  The update pass is then
// branchless over all lanes with the same op order per live lane as the
// scalar oracle; frozen lanes hold stake at exactly +0.0 through the
// penalty and the flush (score * 0.0 / q == +0.0 and 0.0 <= threshold
// re-selects 0.0), and their stale draw only feeds the dead score lane,
// so the extra lockstep work is unobservable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/analytic/config.hpp"
#include "src/support/random.hpp"

namespace leak::kernel {

/// Structure-of-arrays stake/score state for one run's honest cohort.
/// One instance is reused across the runs a worker claims; reset()
/// re-initializes without reallocating.
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
