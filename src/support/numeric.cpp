#include "src/support/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leak::num {

RootResult brent(const std::function<double(double)>& f, double lo,
                 double hi, double tol, int max_iter) {
  RootResult res;
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  if (fa == 0.0) return {a, 0, true};
  if (fb == 0.0) return {b, 0, true};
  if (fa * fb > 0.0) return res;
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa, s = b, fs = fb, d = 0.0;
  bool mflag = true;
  for (int i = 0; i < max_iter; ++i) {
    ++res.iterations;
    if (fb == 0.0 || std::abs(b - a) < tol) {
      res.root = b;
      res.converged = true;
      return res;
    }
    if (fa != fc && fb != fc) {
      // inverse quadratic interpolation
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      s = b - fb * (b - a) / (fb - fa);  // secant
    }
    const double mid = 0.5 * (a + b);
    const bool cond1 = (s < std::min(mid, b) || s > std::max(mid, b));
    const bool cond2 = mflag && std::abs(s - b) >= std::abs(b - c) / 2.0;
    const bool cond3 = !mflag && std::abs(s - b) >= std::abs(c - d) / 2.0;
    const bool cond4 = mflag && std::abs(b - c) < tol;
    const bool cond5 = !mflag && std::abs(c - d) < tol;
    if (cond1 || cond2 || cond3 || cond4 || cond5) {
      s = mid;
      mflag = true;
    } else {
      mflag = false;
    }
    fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (fa * fs < 0.0) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  res.root = b;
  res.converged = true;
  return res;
}

std::optional<std::pair<double, double>> bracket_upward(
    const std::function<double(double)>& f, double lo, double step,
    double limit) {
  double a = lo;
  double fa = f(a);
  if (fa == 0.0) return std::pair{a, a};
  while (a < limit) {
    const double b = std::min(a + step, limit);
    const double fb = f(b);
    if (fa * fb <= 0.0) return std::pair{a, b};
    a = b;
    fa = fb;
    if (b >= limit) break;
  }
  return std::nullopt;
}

std::vector<OdePoint> rk4(const std::function<double(double, double)>& f,
                          double t0, double y0, double t1, int steps) {
  if (steps < 1) throw std::invalid_argument("rk4: steps must be >= 1");
  std::vector<OdePoint> out;
  out.reserve(static_cast<std::size_t>(steps) + 1);
  const double h = (t1 - t0) / steps;
  double t = t0, y = y0;
  out.push_back({t, y});
  for (int i = 0; i < steps; ++i) {
    const double k1 = f(t, y);
    const double k2 = f(t + h / 2, y + h / 2 * k1);
    const double k3 = f(t + h / 2, y + h / 2 * k2);
    const double k4 = f(t + h, y + h * k3);
    y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4);
    t = t0 + (i + 1) * h;
    out.push_back({t, y});
  }
  return out;
}

double normal_pdf(double x) {
  static const double inv_sqrt_2pi = 0.3989422804014326779;
  return inv_sqrt_2pi * std::exp(-0.5 * x * x);
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double lognormal_pdf(double s, double mu, double sigma) {
  if (s <= 0.0) return 0.0;
  const double z = (std::log(s) - mu) / sigma;
  return normal_pdf(z) / (s * sigma);
}

double lognormal_cdf(double s, double mu, double sigma) {
  if (s <= 0.0) return 0.0;
  return normal_cdf((std::log(s) - mu) / sigma);
}

std::vector<double> linspace(double lo, double hi, int n) {
  if (n < 2) throw std::invalid_argument("linspace: n must be >= 2");
  std::vector<double> out(static_cast<std::size_t>(n));
  const double h = (hi - lo) / (n - 1);
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = lo + i * h;
  out.back() = hi;
  return out;
}

}  // namespace leak::num
