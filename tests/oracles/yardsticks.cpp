// Yardstick implementations, kept as they were when they left src/.
// See the header for the contract.
#include "tests/oracles/yardsticks.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "src/analytic/stake_model.hpp"

namespace leak::oracle {

namespace {

std::uint64_t le64(const crypto::Digest& d) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

crypto::Digest hash_round(const crypto::Digest& seed, std::uint8_t round) {
  crypto::Sha256 h;
  h.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
  h.update_value(round);
  return h.finalize();
}

crypto::Digest hash_round_position(const crypto::Digest& seed,
                                   std::uint8_t round,
                                   std::uint32_t position_div) {
  crypto::Sha256 h;
  h.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
  h.update_value(round);
  h.update_value(position_div);
  return h.finalize();
}

void check_params(double p0, double beta0) {
  if (p0 < 0.0 || p0 > 1.0) {
    throw std::invalid_argument("ratio_model: p0 must be in [0,1]");
  }
  if (beta0 < 0.0 || beta0 >= 1.0) {
    throw std::invalid_argument("ratio_model: beta0 must be in [0,1)");
  }
}

/// Normalized stake (s/s0) of a behaviour class with ejection zeroing.
double weight(analytic::Behavior b, double t,
              const analytic::AnalyticConfig& cfg) {
  return analytic::stake_with_ejection(b, t, cfg) / cfg.initial_stake;
}

}  // namespace

std::uint64_t shuffled_index(std::uint64_t index, std::uint64_t index_count,
                             const crypto::Digest& seed, int rounds) {
  if (index >= index_count || index_count == 0) {
    throw std::invalid_argument("shuffled_index: index out of range");
  }
  for (int r = 0; r < rounds; ++r) {
    const auto round = static_cast<std::uint8_t>(r);
    const std::uint64_t pivot = le64(hash_round(seed, round)) % index_count;
    const std::uint64_t flip = (pivot + index_count - index) % index_count;
    const std::uint64_t position = std::max(index, flip);
    const crypto::Digest source = hash_round_position(
        seed, round, static_cast<std::uint32_t>(position / 256));
    const std::uint8_t byte =
        source[static_cast<std::size_t>((position % 256) / 8)];
    const bool bit = (byte >> (position % 8)) & 1;
    if (bit) index = flip;
  }
  return index;
}

num::RootResult bisect(const std::function<double(double)>& f, double lo,
                       double hi, double tol, int max_iter) {
  num::RootResult r;
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

double trapezoid(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("trapezoid: need matching arrays, size >= 2");
  }
  // Kahan-Babuska compensated sum of the panels.
  double sum = 0.0;
  double c = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    const double panel = 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
    const double t = sum + panel;
    c += std::abs(sum) >= std::abs(panel) ? (sum - t) + panel
                                          : (panel - t) + sum;
    sum = t;
  }
  return sum + c;
}

double ks_distance(std::vector<double> sample,
                   const std::function<double(double)>& cdf) {
  if (sample.empty()) throw std::invalid_argument("ks_distance: empty");
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double model = cdf(sample[i]);
    const double below = static_cast<double>(i) / n;       // F_n(x-)
    const double above = static_cast<double>(i + 1) / n;   // F_n(x)
    d = std::max(d, std::abs(model - below));
    d = std::max(d, std::abs(model - above));
  }
  return d;
}

double active_ratio_slashing(double t, double p0, double beta0,
                             const analytic::AnalyticConfig& cfg) {
  check_params(p0, beta0);
  const double inact = weight(analytic::Behavior::kInactive, t, cfg);
  const double act = p0 * (1.0 - beta0) + beta0;
  const double denom = act + (1.0 - p0) * (1.0 - beta0) * inact;
  if (denom == 0.0) return 0.0;
  return act / denom;
}

double byzantine_proportion(double t, double p0, double beta0,
                            const analytic::AnalyticConfig& cfg) {
  check_params(p0, beta0);
  const double inact = weight(analytic::Behavior::kInactive, t, cfg);
  const double semi = weight(analytic::Behavior::kSemiActive, t, cfg);
  const double byz = beta0 * semi;
  const double denom =
      p0 * (1.0 - beta0) + (1.0 - p0) * (1.0 - beta0) * inact + byz;
  if (denom == 0.0) return 0.0;
  return byz / denom;
}

bool json_equal(const json::Value& a, const json::Value& b) {
  using Type = json::Value::Type;
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return a.as_bool() == b.as_bool();
    case Type::kInt:
      return a.as_int() == b.as_int();
    case Type::kDouble:
      return a.as_double() == b.as_double();
    case Type::kString:
      return a.as_string() == b.as_string();
    case Type::kArray:
      return std::equal(a.as_array().begin(), a.as_array().end(),
                        b.as_array().begin(), b.as_array().end(), json_equal);
    case Type::kObject:
      return std::equal(a.as_object().begin(), a.as_object().end(),
                        b.as_object().begin(), b.as_object().end(),
                        [](const auto& x, const auto& y) {
                          return x.first == y.first &&
                                 json_equal(x.second, y.second);
                        });
  }
  return false;
}

}  // namespace leak::oracle
