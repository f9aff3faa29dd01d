// Order-fed streaming accumulators shared by the Monte Carlo drivers'
// full and summary modes (and by the scalar test oracles, so oracle
// results stay comparable bit-for-bit).  Every accumulator here is a
// pure function of its insertion sequence; the drivers feed them in
// trial index order — serially in full mode, via the runner's ordered
// reduction tree in summary mode — which is what makes summary mode
// bit-identical to full mode and to every (block, threads) pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
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

/// Streaming summary of an integer-valued duration distribution: a
/// Welford mean fed in run order plus an ordered counting histogram
/// whose reconstructed sorted sample gives quantiles identical to
/// sorting the materialized vector (same multiset -> same sorted
/// order -> same type-7 interpolation).
class DurationSummary {
 public:
  void add(std::uint64_t duration);

  [[nodiscard]] std::size_t count() const { return stats_.count(); }
  [[nodiscard]] double mean() const { return stats_.mean(); }
  /// Type-7 quantile of the accumulated sample; q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

 private:
  RunningStats stats_;
  std::map<std::uint64_t, std::size_t> hist_;
};

}  // namespace leak::kernel
