#include "src/kernel/accumulators.hpp"

#include "src/analytic/duty_cycle.hpp"

namespace leak::kernel {

SnapshotAccumulators::SnapshotAccumulators(
    unsigned branches, double beta0, const analytic::AnalyticConfig& model,
    const std::vector<std::size_t>& snaps)
    : initial_stake_(model.initial_stake),
      ejected_(snaps.size(), 0),
      capped_(snaps.size(), 0),
      exceeds_(snaps.size(), 0),
      stats_(snaps.size()) {
  // Byzantine (1-in-m duty-cycled; m = 2 is the paper's semi-active
  // case) reference stake at each snapshot epoch for the Eq 23
  // exceedance criterion.
  threshold_.resize(snaps.size());
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    threshold_[k] = analytic::multibranch_exceed_threshold(
        branches, beta0, static_cast<double>(snaps[k]), model);
  }
}

void SnapshotAccumulators::add(std::size_t k, double stake) {
  if (stake == 0.0) ++ejected_[k];
  if (stake >= initial_stake_) ++capped_[k];
  if (stake < threshold_[k]) ++exceeds_[k];
  stats_[k].add(stake);
}

void SnapshotAccumulators::finalize(std::size_t n_paths,
                                    std::vector<double>* ejected_fraction,
                                    std::vector<double>* capped_fraction,
                                    std::vector<double>* prob_beta_exceeds,
                                    std::vector<RunningStats>* stake_stats) {
  const auto snapshots = stats_.size();
  const double n = static_cast<double>(n_paths);
  ejected_fraction->resize(snapshots);
  capped_fraction->resize(snapshots);
  prob_beta_exceeds->resize(snapshots);
  for (std::size_t k = 0; k < snapshots; ++k) {
    (*ejected_fraction)[k] = static_cast<double>(ejected_[k]) / n;
    (*capped_fraction)[k] = static_cast<double>(capped_[k]) / n;
    (*prob_beta_exceeds)[k] = static_cast<double>(exceeds_[k]) / n;
  }
  *stake_stats = std::move(stats_);
}

}  // namespace leak::kernel
