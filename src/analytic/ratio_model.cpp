#include "src/analytic/ratio_model.hpp"

#include <stdexcept>

namespace leak::analytic {

namespace {

void check_params(double p0, double beta0) {
  if (p0 < 0.0 || p0 > 1.0) {
    throw std::invalid_argument("ratio_model: p0 must be in [0,1]");
  }
  if (beta0 < 0.0 || beta0 >= 1.0) {
    throw std::invalid_argument("ratio_model: beta0 must be in [0,1)");
  }
}

/// Normalized stake (s/s0) of a behaviour class with ejection zeroing.
double weight(Behavior b, double t, const AnalyticConfig& cfg) {
  return stake_with_ejection(b, t, cfg) / cfg.initial_stake;
}

}  // namespace

double active_ratio_honest(double t, double p0, const AnalyticConfig& cfg) {
  check_params(p0, 0.0);
  const double inact = weight(Behavior::kInactive, t, cfg);
  const double denom = p0 + (1.0 - p0) * inact;
  if (denom == 0.0) return 0.0;  // empty branch (p0 == 0 after ejection)
  return p0 / denom;
}

double active_ratio_semiactive(double t, double p0, double beta0,
                               const AnalyticConfig& cfg) {
  check_params(p0, beta0);
  const double inact = weight(Behavior::kInactive, t, cfg);
  const double semi = weight(Behavior::kSemiActive, t, cfg);
  const double act = p0 * (1.0 - beta0) + beta0 * semi;
  const double denom = act + (1.0 - p0) * (1.0 - beta0) * inact;
  if (denom == 0.0) return 0.0;
  return act / denom;
}

double beta_max(double p0, double beta0, const AnalyticConfig& cfg) {
  check_params(p0, beta0);
  // Evaluated at the ejection of the honest inactive class (Eq 13): the
  // inactive weight is zero and the semi-active weight is at its gap
  // maximum relative to the actives.
  const double t_eject = ejection_epoch(Behavior::kInactive, cfg);
  const double semi = stake(Behavior::kSemiActive, t_eject, cfg) /
                      cfg.initial_stake;
  const double byz = beta0 * semi;
  const double denom = p0 * (1.0 - beta0) + byz;
  if (denom == 0.0) return 0.0;
  return byz / denom;
}

}  // namespace leak::analytic
