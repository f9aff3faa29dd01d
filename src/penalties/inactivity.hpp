// The inactivity-leak engine (Section 4 of the paper).
//
// Every epoch, given each validator's activity flag on the branch under
// consideration, it:
//   1. updates inactivity scores (Eq 1, plus the out-of-leak recovery);
//   2. applies inactivity penalties I(t-1) * s(t-1) / quotient (Eq 2)
//      while the leak is active;
//   3. ejects validators whose balance fell to the ejection threshold.
// The leak itself starts after `min_epochs_to_inactivity_penalty` epochs
// without finalization and stops when finalization resumes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/chain/registry.hpp"
#include "src/penalties/churn.hpp"
#include "src/penalties/spec_config.hpp"

namespace leak::penalties {

/// Outcome of one epoch of processing.
struct EpochPenaltyReport {
  Epoch epoch{};
  bool leaking = false;
  Gwei total_penalty{};
  std::vector<ValidatorIndex> ejected;
};

/// True when the chain is in an inactivity leak at `current`, given the
/// last finalized epoch (spec: previous epoch - finalized epoch >
/// min_epochs_to_inactivity_penalty).
[[nodiscard]] inline bool is_leaking(Epoch current, Epoch last_finalized,
                                     const SpecConfig& config) {
  if (current.value() < last_finalized.value()) {
    throw std::invalid_argument("is_leaking: finalized epoch in the future");
  }
  return current.value() - last_finalized.value() >
         config.min_epochs_to_inactivity_penalty;
}

/// What one epoch of the leak did to one validator record.
struct RecordStep {
  Gwei penalty{};
  /// The balance is at or below the ejection threshold: eject (or queue
  /// the exit, in churn mode).
  bool depleted = false;
};

/// One epoch of the leak arithmetic on one live record's balance and
/// score: the Eq 2 penalty from the score and balance *before* this
/// epoch's update, then the Eq 1 score update, then the ejection test.
/// The single definition both InactivityTracker::process_epoch and the
/// partition simulator's class sweep apply.
[[nodiscard]] inline RecordStep step_record(Gwei& balance,
                                            std::uint64_t& score,
                                            bool active, bool leaking,
                                            const SpecConfig& config) {
  RecordStep step;
  // A zero score means a zero penalty, so the 128-bit multiply/divide
  // is skipped for exactly the records it would not change.
  if (score > 0 && (leaking || config.inactivity_penalty_tracks_score)) {
    step.penalty = Gwei{static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(balance.value()) * score) /
        config.inactivity_penalty_quotient)};
    balance -= step.penalty;
  }
  if (active) {
    score -= std::min(config.inactivity_score_active_decrement, score);
  } else {
    score += config.inactivity_score_bias;
  }
  if (!leaking) {
    score -= std::min(config.inactivity_score_recovery_rate, score);
  }
  step.depleted = balance <= config.ejection_balance;
  return step;
}

/// Drives scores, penalties and ejections on one branch's registry view.
class InactivityTracker {
 public:
  InactivityTracker(chain::ValidatorRegistry& registry, SpecConfig config);

  /// penalties::is_leaking under this tracker's config.
  [[nodiscard]] bool is_leaking(Epoch current, Epoch last_finalized) const {
    return penalties::is_leaking(current, last_finalized, config_);
  }

  /// Process one epoch: `active[i]` (nonzero = active) says whether
  /// validator i was deemed active this epoch on this branch (attested
  /// with a correct target).  Exited validators are skipped.  Flags are
  /// bytes, not vector<bool>: branch trackers run on pool workers, and
  /// the packed-word proxy races under concurrent writers (leaklint D3).
  EpochPenaltyReport process_epoch(Epoch current, Epoch last_finalized,
                                   const std::vector<std::uint8_t>& active);

 private:
  chain::ValidatorRegistry& registry_;
  SpecConfig config_;
  ExitQueue exit_queue_;
};

}  // namespace leak::penalties
