// Numerical toolkit used by the analytic models: root finding, ODE
// integration and Gaussian / log-normal distribution helpers.  Everything
// is header-declared here and defined in numeric.cpp.
#pragma once

#include <functional>
#include <optional>
#include <vector>

namespace leak::num {

/// Result of a root-finding call.
struct RootResult {
  double root = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Brent's method: bracketing root finder with superlinear convergence.
/// Requires f(lo) and f(hi) to have opposite signs (else returns
/// converged=false).
RootResult brent(const std::function<double(double)>& f, double lo,
                 double hi, double tol = 1e-12, int max_iter = 200);

/// Expand a bracket upward from [lo, lo+step] until f changes sign or the
/// limit is reached; returns the bracket if found.
std::optional<std::pair<double, double>> bracket_upward(
    const std::function<double(double)>& f, double lo, double step,
    double limit);

/// One trajectory point of an ODE solution.
struct OdePoint {
  double t = 0.0;
  double y = 0.0;
};

/// Integrate dy/dt = f(t, y) from (t0, y0) to t1 with classic RK4 using
/// `steps` fixed steps; returns the full trajectory (steps+1 points).
std::vector<OdePoint> rk4(const std::function<double(double, double)>& f,
                          double t0, double y0, double t1, int steps);

/// Standard normal probability density.
double normal_pdf(double x);
/// Standard normal cumulative distribution (via std::erf).
double normal_cdf(double x);

/// Log-normal density in s for ln(s) ~ N(mu, sigma^2).
double lognormal_pdf(double s, double mu, double sigma);
/// Log-normal cdf.
double lognormal_cdf(double s, double mu, double sigma);

/// Evenly spaced grid of n points over [lo, hi] inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, int n);

}  // namespace leak::num
