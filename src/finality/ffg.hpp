// Casper-FFG vote accounting: supermajority links, justification and
// finalization (Section 3.2 of the paper).
//
// A checkpoint (b, e) becomes *justified* when attestations carrying a
// checkpoint vote (source = some already-justified checkpoint, target =
// (b, e)) are cast by validators holding more than 2/3 of the active
// stake.  It becomes *finalized* when it is justified and the checkpoint
// of the immediately following epoch is also justified with this
// checkpoint as source ("two consecutive justified checkpoints").
//
// Checkpoints are kept by epoch: each epoch lists the checkpoints seen
// there (as a vote's target or source) in arrival order, next to the
// bitmap of attesters already counted for a target in that epoch.  A
// vote finds its two checkpoints among their epochs' few entries by
// digest comparison, and processing epoch e visits epoch e's targets
// only, so neither cost grows with the history.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/chain/block.hpp"
#include "src/chain/registry.hpp"

namespace leak::finality {

using chain::Attestation;
using chain::Checkpoint;
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
  /// A counted vote: the attester and its source checkpoint's node.
  struct PendingVote {
    std::uint32_t attester = 0;
    std::uint32_t source = 0;
  };
  /// A checkpoint seen as a target or a source, and the counted votes
  /// that target it.
  struct Node {
    Checkpoint checkpoint;
    bool justified = false;
    std::vector<PendingVote> votes;
  };
  /// One epoch's checkpoints (node indices, arrival order) and the
  /// bitmap of the attesters already counted for a target in it.
  struct EpochEntry {
    std::vector<std::uint32_t> nodes;
    std::vector<std::uint64_t> counted;
  };

  [[nodiscard]] EpochEntry& epoch_entry(Epoch e);
  /// The node of `c`, or nullptr when it was never seen.
  [[nodiscard]] const Node* find(const Checkpoint& c) const;
  /// The node index of `c`, added when first seen.
  std::uint32_t intern(const Checkpoint& c);

  const chain::ValidatorRegistry& registry_;
  Checkpoint justified_;
  Checkpoint finalized_;
  std::vector<Node> nodes_;
  /// Indexed by epoch, grown to the largest epoch seen.
  std::vector<EpochEntry> epochs_;
};

}  // namespace leak::finality
