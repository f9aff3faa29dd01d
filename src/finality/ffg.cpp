#include "src/finality/ffg.hpp"

namespace leak::finality {

FfgTracker::FfgTracker(const chain::ValidatorRegistry& registry,
                       Checkpoint genesis)
    : registry_(registry), justified_(genesis), finalized_(genesis) {
  justified_set_.insert(genesis);
  finalized_chain_.push_back(genesis);
}

void FfgTracker::on_checkpoint_vote(const Attestation& att) {
  const VoteKey key{att.attester, att.target.epoch};
  if (seen_.contains(key)) return;
  seen_.insert(key);
  votes_by_target_[att.target].push_back(
      PendingVote{att.attester, att.source});
}

Gwei FfgTracker::support(const Checkpoint& target) const {
  const auto it = votes_by_target_.find(target);
  if (it == votes_by_target_.end()) return Gwei{};
  Gwei total{};
  for (const PendingVote& v : it->second) {
    if (!justified_set_.contains(v.source)) continue;
    if (!registry_.is_active(v.attester, target.epoch)) continue;
    total += registry_.at(v.attester).balance;
  }
  return total;
}

std::optional<Checkpoint> FfgTracker::process_epoch(Epoch e) {
  // Gather candidate targets in epoch e; check each for a supermajority
  // link from an already-justified source.  The map is visited in hash
  // order, but that order cannot change the outcome: each attester
  // counts once per target epoch (seen_), so the supports of the
  // epoch-e targets are disjoint parts of the active stake and at most
  // one of them can exceed 2/3 in a single call.
  std::optional<Checkpoint> newly_justified;
  const Gwei total = registry_.total_active_balance(e);
  for (const auto& [target, votes] : votes_by_target_) {
    if (target.epoch != e) continue;
    const Gwei got = support(target);
    // Strictly more than 2/3 of the stake (supermajority).  Computed in
    // 128-bit to avoid overflow: 3*got > 2*total.
    const bool supermajority =
        3 * static_cast<__uint128_t>(got.value()) >
        2 * static_cast<__uint128_t>(total.value());
    if (!supermajority) continue;
    if (!justified_set_.contains(target)) {
      justified_set_.insert(target);
      if (target.epoch > justified_.epoch) justified_ = target;
      newly_justified = target;
      // Finalization: two consecutive justified checkpoints where the
      // earlier one is the source of the later one's supermajority link.
      for (const PendingVote& v : votes) {
        if (v.source.epoch.next() == target.epoch &&
            justified_set_.contains(v.source)) {
          if (v.source.epoch > finalized_.epoch) {
            finalized_ = v.source;
            finalized_chain_.push_back(v.source);
          }
          break;
        }
      }
    }
  }
  return newly_justified;
}

}  // namespace leak::finality
