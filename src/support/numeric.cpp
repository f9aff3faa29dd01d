#include "src/support/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace leak::num {

RootResult bisect(const std::function<double(double)>& f, double lo,
                  double hi, double tol, int max_iter) {
  RootResult r;
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return {lo, 0, true};
  if (fhi == 0.0) return {hi, 0, true};
  if (flo * fhi > 0.0) return r;  // not bracketed
  for (int i = 0; i < max_iter; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    ++r.iterations;
    if (fm == 0.0 || (hi - lo) * 0.5 < tol) {
      r.root = mid;
      r.converged = true;
      return r;
    }
    if (flo * fm < 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fm;
    }
  }
  r.root = 0.5 * (lo + hi);
  r.converged = true;  // bracket shrunk max_iter times; still usable
  return r;
}

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

double normal_pdf(double x, double mu, double sigma) {
  return normal_pdf((x - mu) / sigma) / sigma;
}

double normal_cdf(double x, double mu, double sigma) {
  return normal_cdf((x - mu) / sigma);
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::domain_error("normal_quantile: p must be in (0,1)");
  }
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425, phigh = 1 - plow;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  } else if (p <= phigh) {
    const double q = p - 0.5, r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  } else {
    const double q = std::sqrt(-2 * std::log(1 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  // One Halley refinement step using the exact cdf.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * 3.14159265358979323846) *
                   std::exp(x * x / 2.0);
  x = x - u / (1 + x * u / 2);
  return x;
}

double lognormal_pdf(double s, double mu, double sigma) {
  if (s <= 0.0) return 0.0;
  const double z = (std::log(s) - mu) / sigma;
  return normal_pdf(z) / (s * sigma);
}

double lognormal_cdf(double s, double mu, double sigma) {
  if (s <= 0.0) return 0.0;
  return normal_cdf((std::log(s) - mu) / sigma);
}

void KahanSum::add(double x) {
  const double t = sum_ + x;
  if (std::abs(sum_) >= std::abs(x)) {
    c_ += (sum_ - t) + x;
  } else {
    c_ += (x - t) + sum_;
  }
  sum_ = t;
}

double trapezoid(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("trapezoid: need matching arrays, size >= 2");
  }
  KahanSum s;
  for (std::size_t i = 1; i < x.size(); ++i) {
    s.add(0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]));
  }
  return s.value();
}

double lerp_table(const std::vector<double>& x, const std::vector<double>& y,
                  double xq) {
  if (x.size() != y.size() || x.empty()) {
    throw std::invalid_argument("lerp_table: bad table");
  }
  if (xq <= x.front()) return y.front();
  if (xq >= x.back()) return y.back();
  const auto it = std::upper_bound(x.begin(), x.end(), xq);
  const std::size_t i = static_cast<std::size_t>(it - x.begin());
  const double w = (xq - x[i - 1]) / (x[i] - x[i - 1]);
  return y[i - 1] + w * (y[i] - y[i - 1]);
}

std::vector<double> linspace(double lo, double hi, int n) {
  if (n < 2) throw std::invalid_argument("linspace: n must be >= 2");
  std::vector<double> out(static_cast<std::size_t>(n));
  const double h = (hi - lo) / (n - 1);
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = lo + i * h;
  out.back() = hi;
  return out;
}

std::uint64_t integer_sqrt(std::uint64_t n) {
  if (n == 0) return 0;
  std::uint64_t x = n;
  // (x + 1) / 2 without overflowing at x == 2^64 - 1.
  std::uint64_t y = x / 2 + (x & 1);
  while (y < x) {
    x = y;
    y = (x + n / x) / 2;
  }
  return x;
}

}  // namespace leak::num
