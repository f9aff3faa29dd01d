// Exit churn limit.
//
// The consensus spec rate-limits validator exits: at most
// max(MIN_PER_EPOCH_CHURN_LIMIT, n_active / CHURN_LIMIT_QUOTIENT)
// validators leave per epoch.  The paper's analysis ejects the whole
// drained class instantaneously at the threshold epoch (the jump in
// Figure 3); with the churn limit the ejection wave is smeared over
// n_drained / churn_limit epochs, during which the queued validators
// keep leaking stake.  This module provides the queue and the limit so
// the simulators can quantify the difference (see
// bench_ablation_churn).
#pragma once

#include <cstdint>
#include <deque>

#include "src/chain/registry.hpp"

namespace leak::penalties {

/// Spec constants (mainnet values).
struct ChurnConfig {
  std::uint64_t min_per_epoch_churn_limit = 4;
  std::uint64_t churn_limit_quotient = 65536;
};

/// churn_limit(n_active) = max(min, n_active / quotient).
[[nodiscard]] std::uint64_t churn_limit(std::uint64_t active_count,
                                        const ChurnConfig& cfg = {});

/// FIFO exit queue with per-epoch churn.
class ExitQueue {
 public:
  explicit ExitQueue(ChurnConfig cfg = {}) : cfg_(cfg) {}

  /// Request an exit (idempotent per validator).
  void request_exit(ValidatorIndex v);

  /// Process one epoch: eject up to churn_limit(active_count) queued
  /// validators from the registry at `epoch`.  Returns those ejected.
  std::vector<ValidatorIndex> process_epoch(chain::ValidatorRegistry& reg,
                                            Epoch epoch);

 private:
  ChurnConfig cfg_;
  std::deque<ValidatorIndex> queue_;
  std::vector<std::uint8_t> queued_;  // lazily sized
};

}  // namespace leak::penalties
