// Active-stake ratios and the peak Byzantine stake proportion on a branch
// during the leak (Equations 5, 10 and 13 of the paper).
//
// Branch convention: `p0` is the initial proportion of *honest*
// validators active on the branch under consideration; `beta0` the
// initial Byzantine stake proportion (held out of the honest split).
// All functions account for the ejection of drained validator classes at
// their continuous ejection epoch, which produces the jump to 1 seen in
// Figure 3 at t = 4685.
#pragma once

#include "src/analytic/config.hpp"
#include "src/analytic/stake_model.hpp"

namespace leak::analytic {

/// Eq 5 — all-honest partition: ratio of active stake on a branch with
/// initial active proportion p0 at epoch t.
[[nodiscard]] double active_ratio_honest(double t, double p0,
                                         const AnalyticConfig& cfg);

/// Eq 10 — Byzantine validators semi-active on each branch
/// (non-slashable, Section 5.2.2): ratio counting the Byzantine stake
/// (decayed by semi-activity) toward the active side.
[[nodiscard]] double active_ratio_semiactive(double t, double p0,
                                             double beta0,
                                             const AnalyticConfig& cfg);

/// Eq 13 — the maximum Byzantine proportion, reached at the ejection of
/// the honest inactive class.
[[nodiscard]] double beta_max(double p0, double beta0,
                              const AnalyticConfig& cfg);

}  // namespace leak::analytic
