// Order-fed streaming per-snapshot accumulators for the bouncing-attack
// stake distribution driver.  Every accumulator here is a pure function
// of its insertion sequence; run_bouncing_mc feeds them in path order on
// the calling thread once the fan-out has filled its per-path slabs,
// which is what makes every summary bit-identical across (block,
// threads) pairs and to the scalar test oracle's own copy of this code.
#pragma once

#include <cstddef>
#include <vector>

#include "src/analytic/config.hpp"
#include "src/support/stats.hpp"

namespace leak::kernel {

/// Streaming per-snapshot reduction for the bouncing-attack stake
/// distribution driver.  Each snapshot's accumulators must be fed its
/// paths in ascending path order (the Welford summary is
/// order-sensitive in floating point); snapshots are independent of
/// each other.
class SnapshotAccumulators {
 public:
  /// Thresholds per snapshot epoch come from the Eq 23 multibranch
  /// exceedance criterion for (branches, beta0, model).
  SnapshotAccumulators(unsigned branches, double beta0,
                       const analytic::AnalyticConfig& model,
                       const std::vector<std::size_t>& snaps);

  /// Fold one path's stake at snapshot k (ejection <=> stake flushed
  /// to exactly 0: live stake always stays above the threshold).
  void add(std::size_t k, double stake);

  /// Freeze the counts into fractions and move the summaries into the
  /// caller's result fields.
  void finalize(std::size_t n_paths, std::vector<double>* ejected_fraction,
                std::vector<double>* capped_fraction,
                std::vector<double>* prob_beta_exceeds,
                std::vector<RunningStats>* stake_stats);

 private:
  double initial_stake_;
  std::vector<double> threshold_;
  std::vector<std::size_t> ejected_;
  std::vector<std::size_t> capped_;
  std::vector<std::size_t> exceeds_;
  std::vector<RunningStats> stats_;
};

}  // namespace leak::kernel
