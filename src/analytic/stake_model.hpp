// Stake trajectories during an inactivity leak (Section 4.3).
//
// The paper models the stake with the ODE s'(t) = -I(t) s(t) / 2^26
// (Eq 3) and distinguishes three behaviours:
//   active      I(t) = 0            s(t) = s0
//   semi-active I(t) = 3t/2         s(t) = s0 e^{-3 t^2 / 2^28}
//   inactive    I(t) = 4t           s(t) = s0 e^{-t^2 / 2^25}
// This module provides those closed forms (generalized over the config's
// bias/quotient), the exact discrete recurrences of Eqs 1-2, RK4-based
// numeric integration of Eq 3 for arbitrary score paths, and ejection
// epochs for each behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "src/analytic/config.hpp"

namespace leak::analytic {

/// Validator behaviour during a leak, from one branch's point of view.
enum class Behavior : std::uint8_t { kActive, kSemiActive, kInactive };

/// Mean inactivity-score slope v for a behaviour, so that I(t) ~ v * t:
/// active 0; semi-active (bias - decrement)/2 = 3/2; inactive bias = 4.
[[nodiscard]] double score_slope(Behavior b, const AnalyticConfig& cfg);

/// Closed-form stake at continuous time t, *ignoring* ejection:
/// s(t) = s0 exp(-v t^2 / (2 q)).
[[nodiscard]] double stake(Behavior b, double t, const AnalyticConfig& cfg);

/// Stake with ejection applied: zero once s(t) falls to the threshold.
[[nodiscard]] double stake_with_ejection(Behavior b, double t,
                                         const AnalyticConfig& cfg);

/// Continuous ejection epoch: t such that s(t) = threshold; +inf for a
/// behaviour that never ejects (active).  For the paper config this is
/// 4685 (inactive) and 7652 (semi-active), matching Figure 2.
[[nodiscard]] double ejection_epoch(Behavior b, const AnalyticConfig& cfg);

/// One epoch step of the exact discrete protocol recurrences.
struct DiscreteState {
  double stake = 32.0;
  double score = 0.0;
  bool ejected = false;
};

/// Result of a discrete epoch-by-epoch simulation of Eqs 1-2.
struct DiscreteTrajectory {
  std::vector<double> stake;  ///< stake[t] before ejection-zeroing
  std::vector<double> score;  ///< inactivity score after epoch t
  /// First epoch where stake <= threshold; -1 if never within horizon.
  std::int64_t ejection_epoch = -1;
};

/// Run the exact discrete recurrence for `epochs` epochs.  `active_at[t]`
/// (nonzero = active) says whether the validator is active at epoch t.
/// Scores are floored at zero (as in the protocol; the continuous model
/// ignores the floor).  Activity flags are bytes, not vector<bool>:
/// the packed-word proxy races under concurrent writers (leaklint D3).
DiscreteTrajectory simulate_discrete(
    const std::vector<std::uint8_t>& active_at, const AnalyticConfig& cfg);

/// Convenience: discrete trajectory for one of the three behaviours.
DiscreteTrajectory simulate_discrete(Behavior b, std::size_t epochs,
                                     const AnalyticConfig& cfg);

/// Numeric integration of the ODE (Eq 3) with the behaviour's mean score,
/// used to validate the closed form; returns stake at time t.
[[nodiscard]] double stake_ode(Behavior b, double t,
                               const AnalyticConfig& cfg, int steps = 2000);

}  // namespace leak::analytic
