// The inactivity-score random walk of Section 5.3.
//
// From one branch's viewpoint, an honest validator randomly re-assigned
// every epoch takes a step of +bias (inactive, probability 1-p0) or
// -decrement (active, probability p0).  The paper approximates the score
// after t epochs with the Gaussian phi(I,t) of Eq 16, drift V = 3/2 and
// diffusion D = 25 p0 (1-p0), deliberately ignoring the protocol's floor
// of the score at zero.  This module provides the paper's constants and
// an exact discrete pmf via dynamic programming, with or without the
// floor at zero, used to quantify both approximations.  The exact walk's
// variance is half the Gaussian's.
#pragma once

#include <cstddef>
#include <vector>

namespace leak::bouncing {

/// Paper constants: drift V and diffusion D for the Eq 16 Gaussian.
struct WalkParams {
  double drift = 1.5;       ///< V = 3/2 (independent of p0, see Eq 15)
  double diffusion = 6.25;  ///< D = 25 p0 (1-p0)

  static WalkParams paper(double p0);
};

/// Exact pmf of the score after `epochs` steps via dynamic programming.
/// Score support is {0, 1, 2, ...} when floored, or shifted integers
/// otherwise.  p[i] is the probability of score == i - offset.
struct ScorePmf {
  std::vector<double> p;
  /// Value represented by index 0 (0 when floored, -epochs*decrement
  /// otherwise).
  long long offset = 0;

  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;
};

/// Run the DP for `epochs` epochs with inactive probability (1-p0).
/// `floor_at_zero` replicates the protocol's max(score, 0).
ScorePmf exact_score_pmf(double p0, std::size_t epochs, bool floor_at_zero,
                         int bias = 4, int decrement = 1);

}  // namespace leak::bouncing
