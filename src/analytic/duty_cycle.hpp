// Generalized duty-cycle behaviours — an extension of the paper's
// three-way active / semi-active / inactive taxonomy (Section 4.3).
//
// A validator with duty cycle 1/k is active one epoch out of every k
// (k = 1: active, k = 2: the paper's semi-active, k -> inf: inactive).
// Its inactivity score grows with mean slope
//     v(k) = (bias * (k-1) - decrement) / k
// so its stake decays as s0 * exp(-v(k) t^2 / (2 q)).  This family is
// exactly the design space of non-slashable strategies: a Byzantine
// validator alternating over m >= 2 branches is active on each branch
// with duty cycle 1/m.  The tools here answer the paper's implicit
// follow-up question: how does the attack degrade when the adversary
// spreads over more than two branches?
#pragma once

#include <optional>

#include "src/analytic/config.hpp"
#include "src/analytic/stake_model.hpp"

namespace leak::analytic {

/// Mean score slope of a 1-in-k duty cycle (k >= 1); k = 0 means never
/// active (slope = bias).
[[nodiscard]] double duty_cycle_slope(unsigned k, const AnalyticConfig& cfg);

/// Closed-form stake of a 1-in-k validator at epoch t (no ejection).
[[nodiscard]] double duty_cycle_stake(unsigned k, double t,
                                      const AnalyticConfig& cfg);

/// Ejection epoch of a 1-in-k validator (+inf for k = 1 when the slope
/// is <= 0, i.e. fully active).
[[nodiscard]] double duty_cycle_ejection_epoch(unsigned k,
                                               const AnalyticConfig& cfg);

/// Multi-branch generalization of the Section 5.2.2 attack: Byzantine
/// validators rotate over m branches (duty cycle 1/m per branch) while
/// honest validators split evenly (p0 = 1/m per branch).  Returns the
/// epochs until a branch regains a 2/3 supermajority (the slowest =
/// only branch time, by symmetry), capped at the inactive ejection.
[[nodiscard]] double multibranch_supermajority_epoch(
    unsigned branches, double beta0, const AnalyticConfig& cfg);

/// beta_max for the m-branch attack (Eq 13 generalized): the Byzantine
/// proportion reached on each branch at the honest-inactive ejection.
[[nodiscard]] double multibranch_beta_max(unsigned branches, double beta0,
                                          const AnalyticConfig& cfg);

/// Minimum beta0 whose m-branch beta_max reaches 1/3.
[[nodiscard]] double multibranch_beta0_lower_bound(
    unsigned branches, const AnalyticConfig& cfg);

/// Per-validator honest-stake threshold of the Eq 23 exceedance
/// criterion on one branch of the m-branch rotation at epoch t: the
/// branch's Byzantine proportion exceeds 1/3 exactly when the honest
/// stake falls below this value.  branches = 2 reproduces the
/// two-branch criterion run_bouncing_mc has always used,
/// bit-identically.
[[nodiscard]] double multibranch_exceed_threshold(unsigned branches,
                                                  double beta0, double t,
                                                  const AnalyticConfig& cfg);

}  // namespace leak::analytic
