#include "src/analytic/duty_cycle.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/support/numeric.hpp"

namespace leak::analytic {

double duty_cycle_slope(unsigned k, const AnalyticConfig& cfg) {
  if (k == 0) return cfg.score_bias;  // never active
  const double kk = static_cast<double>(k);
  const double v =
      (cfg.score_bias * (kk - 1.0) - cfg.score_active_decrement) / kk;
  // The protocol floors the score at zero: a fully active validator's
  // score cannot drift negative.
  return std::max(v, 0.0);
}

double duty_cycle_stake(unsigned k, double t, const AnalyticConfig& cfg) {
  const double v = duty_cycle_slope(k, cfg);
  return cfg.initial_stake * std::exp(-v * t * t / (2.0 * cfg.quotient));
}

double duty_cycle_ejection_epoch(unsigned k, const AnalyticConfig& cfg) {
  const double v = duty_cycle_slope(k, cfg);
  if (v <= 0.0) return std::numeric_limits<double>::infinity();
  const double ratio = cfg.initial_stake / cfg.ejection_threshold;
  return std::sqrt(2.0 * cfg.quotient * std::log(ratio) / v);
}

namespace {

/// Active-stake ratio on one branch of the m-branch rotation attack.
double multibranch_ratio(unsigned m, double beta0, double t,
                         const AnalyticConfig& cfg) {
  const double p = 1.0 / static_cast<double>(m);
  const double eb = duty_cycle_stake(m, t, cfg) / cfg.initial_stake;
  const double ei =
      stake(Behavior::kInactive, t, cfg) / cfg.initial_stake;
  const double t_ej = ejection_epoch(Behavior::kInactive, cfg);
  const double inact_w = t >= t_ej ? 0.0 : ei;
  const double act = p * (1.0 - beta0) + beta0 * eb;
  const double denom = act + (1.0 - p) * (1.0 - beta0) * inact_w;
  return denom > 0.0 ? act / denom : 0.0;
}

}  // namespace

double multibranch_supermajority_epoch(unsigned branches, double beta0,
                                       const AnalyticConfig& cfg) {
  if (branches < 2) {
    throw std::invalid_argument("multibranch: need >= 2 branches");
  }
  const double t_ej = ejection_epoch(Behavior::kInactive, cfg);
  const auto gap = [&](double t) {
    return multibranch_ratio(branches, beta0, t, cfg) - 2.0 / 3.0;
  };
  if (gap(0.0) >= 0.0) return 0.0;
  const auto bracket = num::bracket_upward(gap, 0.0, 64.0, t_ej - 1e-6);
  if (!bracket) return t_ej;
  const auto root = num::brent(gap, bracket->first, bracket->second, 1e-9);
  if (!root.converged) {
    throw std::runtime_error("multibranch_supermajority_epoch: no root");
  }
  return root.root;
}

double multibranch_beta_max(unsigned branches, double beta0,
                            const AnalyticConfig& cfg) {
  if (branches < 2) {
    throw std::invalid_argument("multibranch: need >= 2 branches");
  }
  const double p = 1.0 / static_cast<double>(branches);
  const double t_ej = ejection_epoch(Behavior::kInactive, cfg);
  const double eb = duty_cycle_stake(branches, t_ej, cfg) /
                    cfg.initial_stake;
  const double byz = beta0 * eb;
  const double denom = p * (1.0 - beta0) + byz;
  return denom > 0.0 ? byz / denom : 0.0;
}

double multibranch_exceed_threshold(unsigned branches, double beta0,
                                    double t, const AnalyticConfig& cfg) {
  if (branches < 2) {
    throw std::invalid_argument("multibranch: need >= 2 branches");
  }
  // At branches = 2 the duty-cycle law is the paper's semi-active one
  // bit for bit whenever bias >= decrement: (b * 1.0 - d) / 2 and
  // (b - d) / 2 are the same double.
  const double factor =
      static_cast<double>(branches) * beta0 / (1.0 - beta0);
  return factor * duty_cycle_stake(branches, t, cfg);
}

double multibranch_beta0_lower_bound(unsigned branches,
                                     const AnalyticConfig& cfg) {
  if (branches < 2) {
    throw std::invalid_argument("multibranch: need >= 2 branches");
  }
  // beta_max >= 1/3  <=>  beta0 >= 1 / (1 + 2 m E), with E the duty-
  // cycle decay at the honest-inactive ejection epoch; m = 2 recovers
  // the paper's 1/(1 + 4 E) = 0.2421.
  const double t_ej = ejection_epoch(Behavior::kInactive, cfg);
  const double e = duty_cycle_stake(branches, t_ej, cfg) /
                   cfg.initial_stake;
  return 1.0 / (1.0 + 2.0 * static_cast<double>(branches) * e);
}

}  // namespace leak::analytic
