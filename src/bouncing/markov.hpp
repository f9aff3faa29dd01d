// The probabilistic bouncing attack's branch-assignment process
// (Section 5.3, Figure 8): every epoch each honest validator ends up on
// branch A with probability p0 and on branch B with probability 1 - p0,
// while Byzantine validators alternate branches to keep justification
// happening only every other epoch.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

namespace leak::bouncing {

/// Eq 14 — the (open) interval of honest split p0 for which the attack
/// can continue: (2 - 3 b0) / (3 (1 - b0)) < p0 < 2 / (3 (1 - b0)).
/// Returns nullopt when the interval is empty (beta0 >= values where no
/// p0 works) — for beta0 in (0, 1/3) it is always non-empty.
std::optional<std::pair<double, double>> feasible_p0_interval(double beta0);

/// True when (p0, beta0) satisfies both attack conditions of Eq 14.
bool attack_feasible(double p0, double beta0);

/// Probability that the attack continues for k epochs when a Byzantine
/// proposer is needed within the j first slots of each epoch:
/// (1 - (1 - beta0)^j)^k  (Section 5.3).
double continuation_probability(double beta0, int j, std::uint64_t k);

/// Eq 15 — distribution of a validator's inactivity-score increment over
/// two epochs, from one branch's viewpoint.
struct TwoEpochIncrement {
  double p_plus8 = 0.0;   ///< inactive twice:        p0 (1-p0)
  double p_plus3 = 0.0;   ///< one epoch each:        p0^2 + (1-p0)^2
  double p_minus2 = 0.0;  ///< active twice:          p0 (1-p0)
};

/// Compute the Eq 15 probabilities for a given p0.
TwoEpochIncrement two_epoch_increment(double p0);

}  // namespace leak::bouncing
