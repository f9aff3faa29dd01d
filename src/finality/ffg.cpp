#include "src/finality/ffg.hpp"

namespace leak::finality {

FfgTracker::FfgTracker(const chain::ValidatorRegistry& registry,
                       Checkpoint genesis)
    : registry_(registry), justified_(genesis), finalized_(genesis) {
  justified_set_.insert(genesis);
}

void FfgTracker::on_checkpoint_vote(const Attestation& att) {
  const std::uint32_t a = att.attester.value();
  std::vector<std::uint64_t>& counted = counted_[att.target.epoch.value()];
  if (counted.size() <= a / 64) counted.resize(a / 64 + 1);
  const std::uint64_t bit = std::uint64_t{1} << (a % 64);
  if ((counted[a / 64] & bit) != 0) return;
  counted[a / 64] |= bit;
  votes_by_target_[att.target].push_back(
      PendingVote{a, intern_source(att.source)});
}

std::uint32_t FfgTracker::intern_source(const Checkpoint& c) {
  // Newest first: votes mostly carry the latest justified checkpoint.
  for (std::size_t i = sources_.size(); i-- > 0;) {
    if (sources_[i] == c) return static_cast<std::uint32_t>(i);
  }
  sources_.push_back(c);
  return static_cast<std::uint32_t>(sources_.size() - 1);
}

Gwei FfgTracker::support(const Checkpoint& target) const {
  const auto it = votes_by_target_.find(target);
  if (it == votes_by_target_.end()) return Gwei{};
  Gwei total{};
  for (const PendingVote& v : it->second) {
    if (!justified_set_.contains(sources_[v.source])) continue;
    const ValidatorIndex attester{v.attester};
    if (!registry_.is_active(attester, target.epoch)) continue;
    total += registry_.at(attester).balance;
  }
  return total;
}

std::optional<Checkpoint> FfgTracker::process_epoch(Epoch e) {
  // Gather candidate targets in epoch e; check each for a supermajority
  // link from an already-justified source.  The map is visited in hash
  // order, but that order cannot change the outcome: each attester
  // counts once per target epoch (counted_), so the supports of the
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
        const Checkpoint& source = sources_[v.source];
        if (source.epoch.next() == target.epoch &&
            justified_set_.contains(source)) {
          if (source.epoch > finalized_.epoch) finalized_ = source;
          break;
        }
      }
    }
  }
  return newly_justified;
}

}  // namespace leak::finality
