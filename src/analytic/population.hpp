// Mixed-population leak dynamics — the general form of the paper's
// branch analysis (Section 5), for arbitrary mixtures of behaviour
// classes instead of the fixed {honest-active, honest-inactive,
// Byzantine-semi-active} triple.
//
// A branch is described by a list of classes, each with an initial
// stake share and a mean inactivity-score slope (0 = always active,
// 4 = never active, 3/2 = the paper's semi-active, or anything in
// between, e.g. a realistic fleet that misses 5% of its duties).  The
// model provides the active-stake ratio over time, the supermajority
// crossing epoch, and any class's stake proportion — all with
// per-class ejection handled at the class's own ejection epoch.
//
// Setting up the paper's scenarios:
//   Eq 5  = {(p0, slope 0, active), (1-p0, slope 4, inactive)}
//   Eq 8  = {(p0(1-b0), 0, A), (b0, 0, A), ((1-p0)(1-b0), 4, I)}
//   Eq 10 = {(p0(1-b0), 0, A), (b0, 3/2, A), ((1-p0)(1-b0), 4, I)}
#pragma once

#include <string>
#include <vector>

#include "src/analytic/config.hpp"

namespace leak::analytic {

/// One behaviour class on a branch.
struct PopulationClass {
  std::string name;
  /// Initial share of the branch's total stake (shares must sum to 1).
  double share = 0.0;
  /// Mean inactivity-score slope v, so I(t) = v t (0 <= v <= bias).
  double score_slope = 0.0;
  /// Does this class count toward the branch's *active* side of the
  /// supermajority ratio (i.e. does it vote on this branch)?
  bool counts_active = false;
};

/// The mixed-population branch model.
class Population {
 public:
  Population(std::vector<PopulationClass> classes,
             AnalyticConfig cfg = AnalyticConfig::paper());

  /// Normalized stake weight (s(t)/s0, with ejection) of class k.
  [[nodiscard]] double weight(std::size_t k, double t) const;

  /// Ejection epoch of class k (+inf for slope 0).
  [[nodiscard]] double ejection_epoch_of(std::size_t k) const;

  /// Active-stake ratio of the branch at epoch t (generalized Eq 10).
  [[nodiscard]] double active_ratio(double t) const;

  /// Stake proportion of class k at epoch t (generalized Eq 11).
  [[nodiscard]] double proportion(std::size_t k, double t) const;

  /// First epoch the active ratio exceeds 2/3, found numerically over
  /// [0, horizon]; -1 when it never does within the horizon.  The ratio
  /// may be non-monotone for exotic mixtures, so the search is a scan
  /// refined by bisection on the first sign change.
  [[nodiscard]] double supermajority_epoch(double horizon = 20000.0) const;

  /// Peak proportion of class k over [0, horizon] (scan granularity
  /// `step`), e.g. a Byzantine class's beta-max.
  struct Peak {
    double value = 0.0;
    double epoch = 0.0;
  };
  [[nodiscard]] Peak peak_proportion(std::size_t k, double horizon = 20000.0,
                                     double step = 1.0) const;

 private:
  std::vector<PopulationClass> classes_;
  AnalyticConfig cfg_;
};

/// Convenience constructors for the paper's scenarios.
[[nodiscard]] Population make_honest_partition_population(
    double p0, const AnalyticConfig& cfg = AnalyticConfig::paper());
[[nodiscard]] Population make_semiactive_population(
    double p0, double beta0,
    const AnalyticConfig& cfg = AnalyticConfig::paper());

}  // namespace leak::analytic
