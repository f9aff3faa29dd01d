// Threshold solvers: when does a branch regain a 2/3 active-stake
// supermajority, when do both branches of the fork finalize, and for
// which (p0, beta0) does the Byzantine proportion exceed 1/3
// (Equations 6, 9, 10, 12-14 and the scenario results of Section 5).
#pragma once

#include <optional>
#include <vector>

#include "src/analytic/config.hpp"
#include "src/analytic/ratio_model.hpp"

namespace leak::analytic {

/// Threshold for justification: strictly more than 2/3 of the stake.
inline constexpr double kSupermajority = 2.0 / 3.0;

/// Eq 6 — epochs for a branch with honest-only validators and initial
/// active proportion p0 (< 2/3) to regain 2/3 active stake, capped at
/// the inactive-ejection epoch.
[[nodiscard]] double time_to_supermajority_honest(double p0,
                                                  const AnalyticConfig& cfg);

/// Eq 9 — same with Byzantine stake beta0 active on both branches
/// (slashable strategy of Section 5.2.1).
[[nodiscard]] double time_to_supermajority_slashing(
    double p0, double beta0, const AnalyticConfig& cfg);

/// Numeric root of Eq 10 = 2/3 — Byzantine semi-active (Section 5.2.2),
/// capped at the inactive-ejection epoch.
[[nodiscard]] double time_to_supermajority_semiactive(
    double p0, double beta0, const AnalyticConfig& cfg);

/// Epoch of *conflicting finalization* for a fork whose honest validators
/// split p0 / 1-p0: one epoch after the slower branch regains 2/3
/// ("adding an epoch is necessary after gaining 2/3 of active stake to
/// finalize the preceding justified checkpoint").  Scenario selector:
enum class ByzantineStrategy : std::uint8_t {
  kNone,        ///< Section 5.1 (honest only)
  kSlashable,   ///< Section 5.2.1 (active on both branches)
  kSemiActive,  ///< Section 5.2.2 (alternating, non-slashable)
};

[[nodiscard]] double conflicting_finalization_epoch(
    double p0, double beta0, ByzantineStrategy strategy,
    const AnalyticConfig& cfg);

/// GST upper bound for Safety with only honest validators (Section 5.1):
/// any partition lasting longer than this many epochs of leak forfeits
/// Safety.  Equals 4686 for the paper configuration.
[[nodiscard]] double gst_safety_upper_bound(const AnalyticConfig& cfg);

/// Smallest beta0 such that beta_max(p0, beta0) >= 1/3, in closed form:
/// beta0 = p0 / (p0 + 2 E) with E the semi-active decay at the ejection
/// epoch.  Returns 0.2421 at p0 = 0.5 for the paper configuration.
[[nodiscard]] double beta0_lower_bound(double p0, const AnalyticConfig& cfg);

/// A point of the Figure 7 frontier: for a given p0, the minimal beta0
/// whose beta_max reaches 1/3 on *both* branches (the figure's two
/// mirrored curves; both-branches feasibility needs the max of the two).
struct Fig7Point {
  double p0 = 0.0;
  double beta0_branch1 = 0.0;   ///< frontier for the p0 branch
  double beta0_branch2 = 0.0;   ///< frontier for the 1-p0 branch
  double beta0_both = 0.0;      ///< max of the two: both branches exceed
};

/// Sample the Figure 7 frontier over a p0 grid.
[[nodiscard]] std::vector<Fig7Point> fig7_frontier(
    const std::vector<double>& p0_grid, const AnalyticConfig& cfg);

/// The global minimum of `beta0_both` over p0 (attained at p0 = 0.5).
[[nodiscard]] Fig7Point fig7_optimum(const AnalyticConfig& cfg);

}  // namespace leak::analytic
