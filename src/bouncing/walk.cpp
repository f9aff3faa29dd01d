#include "src/bouncing/walk.hpp"

#include <algorithm>
#include <stdexcept>

namespace leak::bouncing {

WalkParams WalkParams::paper(double p0) {
  WalkParams w;
  w.drift = 1.5;
  w.diffusion = 25.0 * p0 * (1.0 - p0);
  return w;
}

double ScorePmf::mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    m += p[i] * static_cast<double>(static_cast<long long>(i) + offset);
  }
  return m;
}

double ScorePmf::variance() const {
  const double m = mean();
  double v = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double x = static_cast<double>(static_cast<long long>(i) + offset);
    v += p[i] * (x - m) * (x - m);
  }
  return v;
}

ScorePmf exact_score_pmf(double p0, std::size_t epochs, bool floor_at_zero,
                         int bias, int decrement) {
  if (p0 < 0.0 || p0 > 1.0) {
    throw std::invalid_argument("exact_score_pmf: p0 in [0,1]");
  }
  if (bias <= 0 || decrement <= 0) {
    throw std::invalid_argument("exact_score_pmf: bias/decrement > 0");
  }
  const double q = 1.0 - p0;  // step +bias
  ScorePmf out;
  if (floor_at_zero) {
    // Support [0, bias*epochs].
    const std::size_t n = epochs * static_cast<std::size_t>(bias) + 1;
    std::vector<double> cur(n, 0.0), next(n, 0.0);
    cur[0] = 1.0;
    for (std::size_t t = 0; t < epochs; ++t) {
      std::fill(next.begin(), next.end(), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (cur[i] == 0.0) continue;
        const std::size_t up = i + static_cast<std::size_t>(bias);
        if (up < n) next[up] += cur[i] * q;
        const long long down = static_cast<long long>(i) - decrement;
        next[static_cast<std::size_t>(std::max(down, 0LL))] += cur[i] * p0;
      }
      std::swap(cur, next);
    }
    out.p = std::move(cur);
    out.offset = 0;
  } else {
    // Support [-decrement*epochs, bias*epochs].
    const long long lo = -static_cast<long long>(epochs) * decrement;
    const long long hi = static_cast<long long>(epochs) * bias;
    const std::size_t n = static_cast<std::size_t>(hi - lo) + 1;
    std::vector<double> cur(n, 0.0), next(n, 0.0);
    cur[static_cast<std::size_t>(-lo)] = 1.0;  // score 0 at index -lo
    for (std::size_t t = 0; t < epochs; ++t) {
      std::fill(next.begin(), next.end(), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (cur[i] == 0.0) continue;
        const std::size_t up = i + static_cast<std::size_t>(bias);
        if (up < n) next[up] += cur[i] * q;
        if (i >= static_cast<std::size_t>(decrement)) {
          next[i - static_cast<std::size_t>(decrement)] += cur[i] * p0;
        }
      }
      std::swap(cur, next);
    }
    out.p = std::move(cur);
    out.offset = lo;
  }
  return out;
}

}  // namespace leak::bouncing
