// Casper-FFG vote accounting: supermajority links, justification and
// finalization (Section 3.2 of the paper).
//
// A checkpoint (b, e) becomes *justified* when attestations carrying a
// checkpoint vote (source = some already-justified checkpoint, target =
// (b, e)) are cast by validators holding more than 2/3 of the active
// stake.  It becomes *finalized* when it is justified and the checkpoint
// of the immediately following epoch is also justified with this
// checkpoint as source ("two consecutive justified checkpoints").
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/chain/block.hpp"
#include "src/chain/registry.hpp"

namespace leak::finality {

using chain::Attestation;
using chain::Checkpoint;
using chain::CheckpointHash;
using chain::Digest;

/// Tracks FFG votes and derives the justified / finalized checkpoints of
/// one validator's view (or of one branch, in branch-level simulations).
class FfgTracker {
 public:
  /// `genesis` is both justified and finalized at epoch 0.
  FfgTracker(const chain::ValidatorRegistry& registry, Checkpoint genesis);

  /// Process one checkpoint vote.  Duplicate (attester, target) pairs are
  /// counted once; conflicting same-epoch votes from one attester count
  /// only the first time (the equivocation is the slasher's business).
  void on_checkpoint_vote(const Attestation& att);

  /// Run justification/finalization for the given epoch: checks whether
  /// any target checkpoint of epoch `e` gathered a supermajority link
  /// from a justified source.  Call once per epoch after ingesting votes.
  /// Returns the newly justified checkpoint, if any.
  std::optional<Checkpoint> process_epoch(Epoch e);

  [[nodiscard]] const Checkpoint& justified() const { return justified_; }
  [[nodiscard]] const Checkpoint& finalized() const { return finalized_; }

  /// Stake that voted (source -> target) with a justified source, for a
  /// target in epoch e.  Exposed for tests and metrics.
  [[nodiscard]] Gwei support(const Checkpoint& target) const;

 private:
  const chain::ValidatorRegistry& registry_;
  Checkpoint justified_;
  Checkpoint finalized_;
  std::unordered_set<Checkpoint, CheckpointHash> justified_set_;
  /// A counted vote: the attester and its source checkpoint, interned
  /// in `sources_` (a view sees few distinct sources).
  struct PendingVote {
    std::uint32_t attester = 0;
    std::uint32_t source = 0;
  };
  [[nodiscard]] std::uint32_t intern_source(const Checkpoint& c);

  /// target -> accumulated votes.
  std::unordered_map<Checkpoint, std::vector<PendingVote>, CheckpointHash>
      votes_by_target_;
  std::vector<Checkpoint> sources_;
  /// Target epoch -> bitmap of the attesters already counted for it.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> counted_;
};

}  // namespace leak::finality
