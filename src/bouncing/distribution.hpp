// The honest-validator stake law during the bouncing attack
// (Equations 17-24 of the paper).
//
// Integrating the stake ODE ds/dt = -I(t) s / q over the random score
// path makes ln(s) Gaussian:  ln s ~ N(ln s0 - V t^2 / (2 q),
// (2/3) D t^3 / q^2), i.e. the log-normal F of Eq 19.  The protocol then
// censors the law (Eqs 20-22): mass below the ejection threshold `a`
// collapses to a point mass at 0 (ejected validators), and the cap at
// s0 = 32 keeps a point mass at `b` (validators whose score never bit).
// Eq 24 turns the censored cdf into the probability that the Byzantine
// proportion beta(t) exceeds 1/3.
#pragma once

#include "src/analytic/config.hpp"
#include "src/analytic/stake_model.hpp"
#include "src/bouncing/walk.hpp"

namespace leak::bouncing {

/// The censored log-normal stake law of Section 5.3.
class StakeLaw {
 public:
  /// p0: honest branch-assignment probability; cfg supplies s0, the
  /// quotient q and the ejection threshold a.
  StakeLaw(double p0, const analytic::AnalyticConfig& cfg);

  /// Mean of ln(s) at epoch t (drift term of Eq 19).
  [[nodiscard]] double mu_ln(double t) const;
  /// Standard deviation of ln(s) at epoch t (diffusion term of Eq 19).
  [[nodiscard]] double sigma_ln(double t) const;

  /// Eq 19 — uncensored cdf F(s, t).
  [[nodiscard]] double cdf_uncensored(double s, double t) const;
  /// Eq 18 — uncensored density P(s, t) (the exact derivative of F).
  [[nodiscard]] double pdf_uncensored(double s, double t) const;

  /// Point mass at 0 (ejected): F(a, t).
  [[nodiscard]] double mass_ejected(double t) const;
  /// Point mass at b = s0 (stake still capped): 1 - F(b, t).
  [[nodiscard]] double mass_capped(double t) const;
  /// Interior density of the censored law on (a, b) (Eq 21).
  [[nodiscard]] double pdf_censored(double x, double t) const;
  /// Eq 22 — censored cdf  𝓕(x, t).
  [[nodiscard]] double cdf_censored(double x, double t) const;

 private:
  double p0_;
  double q_;      ///< penalty quotient (2^26)
  double s0_;     ///< initial stake (32)
  double a_;      ///< ejection threshold
  double b_;      ///< cap (= s0)
  WalkParams walk_;
};

/// Eq 24 — probability that the Byzantine proportion exceeds 1/3 at
/// epoch t on one branch, for semi-active Byzantine stake
/// sB(t) = s0 e^{-3 t^2 / 2^28}: cdf_censored(2 b0/(1-b0) * sB(t), t).
/// Returns 0 after the Byzantine ejection epoch (their stake is gone).
double prob_beta_exceeds_third(double t, double beta0, const StakeLaw& law,
                               const analytic::AnalyticConfig& cfg);

/// The paper's two-branch observation: with branches mirrored, the
/// probability that at least one branch exceeds 1/3 can be doubled
/// (clamped to 1).
double prob_beta_exceeds_third_either_branch(
    double t, double beta0, const StakeLaw& law,
    const analytic::AnalyticConfig& cfg);

}  // namespace leak::bouncing
