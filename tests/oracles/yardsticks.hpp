// Reference functions that no production path calls, kept only as
// yardsticks for live ones.
//
// Each one left src/ once nothing outside the tests reached it, but a
// test still measures a live function against it: the per-index
// swap-or-not shuffle checks the batched shuffle_list, bisection checks
// Brent's method, the trapezoid rule integrates the live densities, the
// Kolmogorov-Smirnov distance holds the Monte Carlo to the censored
// stake law, Eqs 8 and 11 check the mixed-population model, and
// structural JSON equality checks the parse/dump round trip.
//
// Do not "fix" or modernize this code: its value is that it does not
// change.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/analytic/config.hpp"
#include "src/crypto/sha256.hpp"
#include "src/support/json.hpp"
#include "src/support/numeric.hpp"

namespace leak::oracle {

/// Spec: compute_shuffled_index(index, index_count, seed) — the
/// swap-or-not network, one index at a time.  Throws
/// std::invalid_argument when index >= index_count.
[[nodiscard]] std::uint64_t shuffled_index(std::uint64_t index,
                                           std::uint64_t index_count,
                                           const crypto::Digest& seed,
                                           int rounds = 90);

/// Find a root of `f` in [lo, hi] by bisection.  Requires f(lo) and f(hi)
/// to have opposite signs (else returns converged=false).
num::RootResult bisect(const std::function<double(double)>& f, double lo,
                       double hi, double tol = 1e-10, int max_iter = 200);

/// Trapezoidal integration over sampled (x, y) pairs, x ascending.
double trapezoid(const std::vector<double>& x, const std::vector<double>& y);

/// Kolmogorov-Smirnov distance between an empirical sample and a model
/// cdf: sup_x |F_n(x) - F(x)|.  Handles cdfs with point masses (the
/// censored stake law) by checking both sides of each sample point.
double ks_distance(std::vector<double> sample,
                   const std::function<double(double)>& cdf);

/// Eq 8 — Byzantine validators active on BOTH branches (slashable,
/// Section 5.2.1): active-stake ratio on the branch.
[[nodiscard]] double active_ratio_slashing(double t, double p0, double beta0,
                                           const analytic::AnalyticConfig& cfg);

/// Eq 11 — proportion of Byzantine stake on the branch over time when
/// Byzantine validators are semi-active and honest actives stay at s0.
[[nodiscard]] double byzantine_proportion(double t, double p0, double beta0,
                                          const analytic::AnalyticConfig& cfg);

/// Structural equality of two JSON values: same type and same content,
/// objects compared key by key in insertion order.
[[nodiscard]] bool json_equal(const json::Value& a, const json::Value& b);

}  // namespace leak::oracle
