#include "src/analytic/population.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/support/numeric.hpp"

namespace leak::analytic {

Population::Population(std::vector<PopulationClass> classes,
                       AnalyticConfig cfg)
    : classes_(std::move(classes)), cfg_(cfg) {
  if (classes_.empty()) {
    throw std::invalid_argument("Population: no classes");
  }
  double total = 0.0;
  for (const auto& c : classes_) {
    if (c.share < 0.0) {
      throw std::invalid_argument("Population: negative share");
    }
    if (c.score_slope < 0.0 || c.score_slope > cfg_.score_bias) {
      throw std::invalid_argument("Population: slope outside [0, bias]");
    }
    total += c.share;
  }
  if (std::abs(total - 1.0) > 1e-9) {
    throw std::invalid_argument("Population: shares must sum to 1");
  }
}

double Population::ejection_epoch_of(std::size_t k) const {
  const double v = classes_.at(k).score_slope;
  if (v <= 0.0) return std::numeric_limits<double>::infinity();
  const double ratio = cfg_.initial_stake / cfg_.ejection_threshold;
  return std::sqrt(2.0 * cfg_.quotient * std::log(ratio) / v);
}

double Population::weight(std::size_t k, double t) const {
  const double v = classes_.at(k).score_slope;
  if (v <= 0.0) return 1.0;
  if (t >= ejection_epoch_of(k)) return 0.0;
  return std::exp(-v * t * t / (2.0 * cfg_.quotient));
}

double Population::active_ratio(double t) const {
  double active = 0.0, total = 0.0;
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    const double mass = classes_[k].share * weight(k, t);
    total += mass;
    if (classes_[k].counts_active) active += mass;
  }
  return total > 0.0 ? active / total : 0.0;
}

double Population::proportion(std::size_t k, double t) const {
  double total = 0.0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    total += classes_[i].share * weight(i, t);
  }
  if (total <= 0.0) return 0.0;
  return classes_.at(k).share * weight(k, t) / total;
}

double Population::supermajority_epoch(double horizon) const {
  const auto gap = [&](double t) { return active_ratio(t) - 2.0 / 3.0; };
  if (gap(0.0) >= 0.0) return 0.0;
  // Scan for the first sign change (the ratio can jump at per-class
  // ejection epochs), then refine within the bracket.
  const double step = 4.0;
  double prev = 0.0;
  for (double t = step; t <= horizon; t += step) {
    if (gap(t) >= 0.0) {
      const auto root = num::brent(gap, prev, t, 1e-9);
      // A jump discontinuity still brackets: brent converges to it.
      return root.converged ? root.root : t;
    }
    prev = t;
  }
  return -1.0;
}

Population::Peak Population::peak_proportion(std::size_t k, double horizon,
                                             double step) const {
  Peak best;
  for (double t = 0.0; t <= horizon; t += step) {
    const double p = proportion(k, t);
    if (p > best.value) {
      best.value = p;
      best.epoch = t;
    }
  }
  return best;
}

Population make_honest_partition_population(double p0,
                                            const AnalyticConfig& cfg) {
  return Population(
      {
          {"honest-active", p0, 0.0, true},
          {"honest-inactive", 1.0 - p0, cfg.score_bias, false},
      },
      cfg);
}

Population make_semiactive_population(double p0, double beta0,
                                      const AnalyticConfig& cfg) {
  const double semi = (cfg.score_bias - cfg.score_active_decrement) / 2.0;
  return Population(
      {
          {"honest-active", p0 * (1.0 - beta0), 0.0, true},
          {"byzantine", beta0, semi, true},
          {"honest-inactive", (1.0 - p0) * (1.0 - beta0), cfg.score_bias,
           false},
      },
      cfg);
}

}  // namespace leak::analytic
