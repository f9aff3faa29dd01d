// Numerical toolkit used by the analytic models: root finding, ODE
// integration, Gaussian / log-normal distribution helpers and compensated
// summation.  Everything is header-declared here and defined in numeric.cpp.
#pragma once

#include <cstdint>
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

/// Find a root of `f` in [lo, hi] by bisection.  Requires f(lo) and f(hi)
/// to have opposite signs (else returns converged=false).
RootResult bisect(const std::function<double(double)>& f, double lo,
                  double hi, double tol = 1e-10, int max_iter = 200);

/// Brent's method: bracketing root finder with superlinear convergence.
/// Same bracketing contract as bisect().
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
/// Normal pdf with mean mu, standard deviation sigma.
double normal_pdf(double x, double mu, double sigma);
/// Normal cdf with mean mu, standard deviation sigma.
double normal_cdf(double x, double mu, double sigma);
/// Inverse standard normal cdf (Acklam's rational approximation, refined
/// with one Halley step; |error| < 1e-9 on (0,1)).
double normal_quantile(double p);

/// Log-normal density in s for ln(s) ~ N(mu, sigma^2).
double lognormal_pdf(double s, double mu, double sigma);
/// Log-normal cdf.
double lognormal_cdf(double s, double mu, double sigma);

/// Kahan–Babuska compensated accumulator.
class KahanSum {
 public:
  void add(double x);
  [[nodiscard]] double value() const { return sum_ + c_; }

 private:
  double sum_ = 0.0;
  double c_ = 0.0;
};

/// Trapezoidal integration over sampled (x, y) pairs, x ascending.
double trapezoid(const std::vector<double>& x, const std::vector<double>& y);

/// Linear interpolation of tabulated (x, y), x strictly ascending; clamps
/// outside the range.
double lerp_table(const std::vector<double>& x, const std::vector<double>& y,
                  double xq);

/// Evenly spaced grid of n points over [lo, hi] inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, int n);

/// Floor of the square root of n (the spec's `integer_squareroot`), exact
/// over the whole uint64 range.
[[nodiscard]] std::uint64_t integer_sqrt(std::uint64_t n);

}  // namespace leak::num
