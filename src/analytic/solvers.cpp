#include "src/analytic/solvers.hpp"

#include <cmath>
#include <stdexcept>

#include "src/support/numeric.hpp"

namespace leak::analytic {

namespace {

/// Cap a supermajority time at the inactive-ejection epoch: at ejection
/// the inactive class leaves the denominator and the ratio jumps to 1.
double cap_at_ejection(double t, const AnalyticConfig& cfg) {
  const double t_eject = ejection_epoch(Behavior::kInactive, cfg);
  return std::min(t, t_eject);
}

}  // namespace

double time_to_supermajority_honest(double p0, const AnalyticConfig& cfg) {
  if (p0 >= kSupermajority) return 0.0;
  if (p0 <= 0.0) return ejection_epoch(Behavior::kInactive, cfg);
  // Eq 6: t = sqrt(2^25 [ln(2(1-p0)) - ln(p0)]), generalized to
  // sqrt((2 q / bias) * [...]) for arbitrary quotient/bias.
  const double scale = 2.0 * cfg.quotient / cfg.score_bias;
  const double arg = std::log(2.0 * (1.0 - p0)) - std::log(p0);
  return cap_at_ejection(std::sqrt(scale * arg), cfg);
}

double time_to_supermajority_slashing(double p0, double beta0,
                                      const AnalyticConfig& cfg) {
  const double act = p0 * (1.0 - beta0) + beta0;
  if (act >= kSupermajority * (act + (1.0 - p0) * (1.0 - beta0))) return 0.0;
  // Eq 9: t = sqrt(2^25 [ln(2(1-p0)) - ln(p0 + beta0/(1-beta0))]).
  const double scale = 2.0 * cfg.quotient / cfg.score_bias;
  const double arg = std::log(2.0 * (1.0 - p0)) -
                     std::log(p0 + beta0 / (1.0 - beta0));
  if (arg <= 0.0) return 0.0;
  return cap_at_ejection(std::sqrt(scale * arg), cfg);
}

double time_to_supermajority_semiactive(double p0, double beta0,
                                        const AnalyticConfig& cfg) {
  const double t_eject = ejection_epoch(Behavior::kInactive, cfg);
  const auto gap = [&](double t) {
    return active_ratio_semiactive(t, p0, beta0, cfg) - kSupermajority;
  };
  if (gap(0.0) >= 0.0) return 0.0;
  // The ratio is increasing in t up to ejection; bracket then refine.
  // Stop the bracket just below the ejection jump so the discontinuity
  // is never mistaken for a smooth crossing.
  const double limit = t_eject - 1e-6;
  const auto bracket = num::bracket_upward(gap, 0.0, 64.0, limit);
  if (!bracket) return t_eject;  // supermajority only via ejection jump
  const auto root = num::brent(gap, bracket->first, bracket->second, 1e-9);
  if (!root.converged) {
    throw std::runtime_error("time_to_supermajority_semiactive: no root");
  }
  return root.root;
}

double conflicting_finalization_epoch(double p0, double beta0,
                                      ByzantineStrategy strategy,
                                      const AnalyticConfig& cfg) {
  const auto branch_time = [&](double p) {
    switch (strategy) {
      case ByzantineStrategy::kNone:
        return time_to_supermajority_honest(p, cfg);
      case ByzantineStrategy::kSlashable:
        return time_to_supermajority_slashing(p, beta0, cfg);
      case ByzantineStrategy::kSemiActive:
        return time_to_supermajority_semiactive(p, beta0, cfg);
    }
    throw std::logic_error("conflicting_finalization_epoch: bad strategy");
  };
  // The fork's two branches have honest-active shares p0 and 1-p0; the
  // conflict completes when the slower branch finalizes, one epoch after
  // regaining 2/3 (finalizing the preceding justified checkpoint).
  const double slower = std::max(branch_time(p0), branch_time(1.0 - p0));
  return slower + 1.0;
}

double gst_safety_upper_bound(const AnalyticConfig& cfg) {
  // Honest-only, best case for the attackers of Safety is the even split
  // p0 = 0.5, and even then both branches only finalize at the ejection
  // epoch (Section 5.1): bound = ejection + 1.
  return conflicting_finalization_epoch(0.5, 0.0, ByzantineStrategy::kNone,
                                        cfg);
}

double beta0_lower_bound(double p0, const AnalyticConfig& cfg) {
  if (p0 <= 0.0) return 0.0;
  // beta_max >= 1/3  <=>  3 beta0 E >= p0 (1-beta0) + beta0 E
  //                  <=>  beta0 >= p0 / (p0 + 2E)
  // with E = semi-active decay at the inactive-ejection epoch.
  const double t_eject = ejection_epoch(Behavior::kInactive, cfg);
  const double e = stake(Behavior::kSemiActive, t_eject, cfg) /
                   cfg.initial_stake;
  return p0 / (p0 + 2.0 * e);
}

std::vector<Fig7Point> fig7_frontier(const std::vector<double>& p0_grid,
                                     const AnalyticConfig& cfg) {
  std::vector<Fig7Point> out;
  out.reserve(p0_grid.size());
  for (const double p0 : p0_grid) {
    Fig7Point pt;
    pt.p0 = p0;
    pt.beta0_branch1 = beta0_lower_bound(p0, cfg);
    pt.beta0_branch2 = beta0_lower_bound(1.0 - p0, cfg);
    pt.beta0_both = std::max(pt.beta0_branch1, pt.beta0_branch2);
    out.push_back(pt);
  }
  return out;
}

Fig7Point fig7_optimum(const AnalyticConfig& cfg) {
  // beta0_both is symmetric around p0 = 0.5 and increasing in
  // max(p0, 1-p0); its minimum is at the even split.
  Fig7Point pt;
  pt.p0 = 0.5;
  pt.beta0_branch1 = beta0_lower_bound(0.5, cfg);
  pt.beta0_branch2 = pt.beta0_branch1;
  pt.beta0_both = pt.beta0_branch1;
  return pt;
}

}  // namespace leak::analytic
