// Validator shuffling and duty assignment.
//
// Implements the consensus spec's swap-or-not shuffle
// (`compute_shuffled_index`), seeded committee assignment (every
// validator attests exactly once per epoch, spread over the 32 slots)
// and balance-weighted proposer selection
// (`compute_proposer_index`-style rejection sampling on effective
// balance).  The protocol's pseudo-random duty assignment is what makes
// the bouncing attack probabilistic: the adversary needs one of its own
// validators among the first j proposers of each epoch.
#pragma once

#include <cstdint>
#include <vector>

#include "src/chain/registry.hpp"
#include "src/crypto/sha256.hpp"

namespace leak::chain {

/// Rounds of the spec's swap-or-not network.
inline constexpr int kShuffleRounds = 90;

/// Full permutation of [0, n) under the spec's swap-or-not shuffle:
/// element i is compute_shuffled_index(i, n, seed).  Each round's pivot
/// and 256-position source blocks are hashed once, O(rounds * n/256)
/// hashes, all of them up front through crypto::sha256_batch.
[[nodiscard]] std::vector<std::uint64_t> shuffle_list(
    std::uint64_t n, const crypto::Digest& seed,
    int rounds = kShuffleRounds);

/// Epoch duties: committee per slot and proposer per slot.
class DutyRoster {
 public:
  /// Build the roster for `epoch` over the active validators of
  /// `registry` with a protocol seed.
  DutyRoster(const ValidatorRegistry& registry, Epoch epoch,
             std::uint64_t base_seed);

  /// Validators attesting at slot (epoch_start + position).
  [[nodiscard]] const std::vector<ValidatorIndex>& committee(
      std::uint64_t position) const;

  /// The proposer of slot (epoch_start + position), selected by
  /// balance-weighted rejection sampling over the shuffled order.
  [[nodiscard]] ValidatorIndex proposer(std::uint64_t position) const;

 private:
  std::vector<std::vector<ValidatorIndex>> committees_;
  std::vector<ValidatorIndex> proposers_;
};

}  // namespace leak::chain
