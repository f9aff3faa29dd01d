// SoA draw/update split for the within-run validator cohorts of the
// attack-lifetime and population drivers.  Unlike the per-path batch
// kernel (stake_batch.hpp), every validator in a cohort shares ONE
// serial RNG stream — the run's — so the draw pass must consume
// uniforms in exactly the scalar order: ascending validator index,
// skipping lanes already ejected when the epoch began.  The update
// pass is then branchless over all lanes with the same op order per
// live lane as the scalar oracle; frozen lanes hold stake at exactly
// +0.0 through the penalty and the flush (score * 0.0 / q == +0.0 and
// 0.0 <= threshold re-selects 0.0), and their stale uniform only feeds
// the dead score lane, so the extra lockstep work is unobservable.
#pragma once

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
  /// All n validators at the initial stake, score 0, live.
  void reset(std::size_t n, const analytic::AnalyticConfig& model);

  /// Draw pass: one uniform from `rng` per live lane, ascending index
  /// order — bit-compatible with the scalar per-validator
  /// rng.bernoulli(p0) sequence (bernoulli(p) == uniform() < p).
  /// Serial by construction: the lanes share the stream.
  void draw(Rng& rng);

  /// Update pass: one epoch of the Figure 8 dynamics over every lane
  /// (Eq 2 penalty with the previous score, Eq 1 floored score update
  /// as a select, ejection flush to exactly 0.0 as a select), then the
  /// ejected flags regenerate from the flushed stakes.  Branchless and
  /// auto-vectorizable; live lanes perform the same IEEE ops in the
  /// same order as the scalar oracle.
  void update(const analytic::AnalyticConfig& model, double p0);

  /// Sum of all stake lanes in ascending index order (ejected lanes
  /// contribute exactly +0.0, as in the scalar oracle's total).
  [[nodiscard]] double stake_sum() const;

 private:
  std::vector<double> stake_;
  std::vector<double> score_;
  std::vector<std::uint8_t> ejected_;
  std::vector<double> uniform_;  ///< this epoch's [0,1) draw per lane
};

}  // namespace leak::kernel
