#include "src/analytic/stake_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/support/numeric.hpp"

namespace leak::analytic {

double score_slope(Behavior b, const AnalyticConfig& cfg) {
  switch (b) {
    case Behavior::kActive:
      return 0.0;
    case Behavior::kSemiActive:
      // +bias one epoch, -decrement the next: net (bias - dec) per two
      // epochs, i.e. slope (bias - dec) / 2 = 3/2 for the paper values.
      return (cfg.score_bias - cfg.score_active_decrement) / 2.0;
    case Behavior::kInactive:
      return cfg.score_bias;
  }
  throw std::logic_error("score_slope: bad behavior");
}

double stake(Behavior b, double t, const AnalyticConfig& cfg) {
  const double v = score_slope(b, cfg);
  return cfg.initial_stake * std::exp(-v * t * t / (2.0 * cfg.quotient));
}

double stake_with_ejection(Behavior b, double t, const AnalyticConfig& cfg) {
  const double s = stake(b, t, cfg);
  return s <= cfg.ejection_threshold ? 0.0 : s;
}

double ejection_epoch(Behavior b, const AnalyticConfig& cfg) {
  const double v = score_slope(b, cfg);
  if (v <= 0.0) return std::numeric_limits<double>::infinity();
  // s0 exp(-v t^2 / 2q) = threshold  =>  t = sqrt(2q ln(s0/thr) / v).
  const double ratio = cfg.initial_stake / cfg.ejection_threshold;
  return std::sqrt(2.0 * cfg.quotient * std::log(ratio) / v);
}

DiscreteTrajectory simulate_discrete(
    const std::vector<std::uint8_t>& active_at,
                                     const AnalyticConfig& cfg) {
  DiscreteTrajectory out;
  out.stake.reserve(active_at.size() + 1);
  out.score.reserve(active_at.size() + 1);
  double s = cfg.initial_stake;
  double score = 0.0;
  out.stake.push_back(s);
  out.score.push_back(score);
  for (std::size_t t = 0; t < active_at.size(); ++t) {
    // Eq 2: penalty uses the score and stake of the previous epoch.
    s -= score * s / cfg.quotient;
    // Eq 1: score update with the protocol's floor at zero.
    if (active_at[t] != 0) {
      score = std::max(score - cfg.score_active_decrement, 0.0);
    } else {
      score += cfg.score_bias;
    }
    out.stake.push_back(s);
    out.score.push_back(score);
    if (out.ejection_epoch < 0 && s <= cfg.ejection_threshold) {
      out.ejection_epoch = static_cast<std::int64_t>(t + 1);
    }
  }
  return out;
}

DiscreteTrajectory simulate_discrete(Behavior b, std::size_t epochs,
                                     const AnalyticConfig& cfg) {
  std::vector<std::uint8_t> active(epochs);
  for (std::size_t t = 0; t < epochs; ++t) {
    switch (b) {
      case Behavior::kActive:
        active[t] = true;
        break;
      case Behavior::kSemiActive:
        active[t] = (t % 2 == 1);  // inactive first, active the next
        break;
      case Behavior::kInactive:
        active[t] = false;
        break;
    }
  }
  return simulate_discrete(active, cfg);
}

double stake_ode(Behavior b, double t, const AnalyticConfig& cfg,
                 int steps) {
  const double v = score_slope(b, cfg);
  const auto rhs = [&](double tt, double y) {
    return -(v * tt) * y / cfg.quotient;
  };
  const auto traj = num::rk4(rhs, 0.0, cfg.initial_stake, t, steps);
  return traj.back().y;
}

}  // namespace leak::analytic
