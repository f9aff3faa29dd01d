// Protocol constants governing penalties.  paper() holds the constants
// the paper's analysis uses (Section 4): inactivity penalty quotient
// 2^26, score bias +4, active decrement -1, out-of-leak recovery -16,
// ejection at 16.75 ETH, leak trigger after 4 epochs without finality.
#pragma once

#include <cstdint>

#include "src/support/types.hpp"

namespace leak::penalties {

struct SpecConfig {
  /// Divisor in the per-epoch inactivity penalty I*s/quotient (Eq 2).
  std::uint64_t inactivity_penalty_quotient = 1ULL << 26;
  /// Inactivity score added per inactive epoch (Eq 1).
  std::uint64_t inactivity_score_bias = 4;
  /// Inactivity score subtracted per active epoch during a leak (Eq 1).
  std::uint64_t inactivity_score_active_decrement = 1;
  /// Extra score reduction applied every epoch while *not* leaking.
  std::uint64_t inactivity_score_recovery_rate = 16;
  /// Epochs without finality before the leak starts (Section 3.3).
  std::uint64_t min_epochs_to_inactivity_penalty = 4;
  /// Balance at or below which a validator is ejected, in Gwei.
  Gwei ejection_balance = Gwei::from_eth(16.75);
  /// Fraction of the balance burned immediately on slashing
  /// (denominator: slashed loses balance/min_slashing_penalty_quotient).
  std::uint64_t min_slashing_penalty_quotient = 32;
  /// Apply the Eq 2 penalty whenever the inactivity score is positive,
  /// not only while the leak is on (the real spec's behaviour, and the
  /// model behind analytic::residual_loss: a drained score keeps
  /// inflicting penalties after finalization resumes).  The paper's
  /// leak analysis never leaves the leak, so the default is the paper's
  /// leak-only penalty gate (docs/MODEL.md).
  bool inactivity_penalty_tracks_score = false;
  /// Rate-limit ejections through the spec's exit churn (the paper's
  /// model ejects instantaneously; enable for the churn ablation).
  bool use_churn_limit = false;
  std::uint64_t min_per_epoch_churn_limit = 4;
  std::uint64_t churn_limit_quotient = 65536;

  [[nodiscard]] static SpecConfig paper() { return SpecConfig{}; }
};

}  // namespace leak::penalties
