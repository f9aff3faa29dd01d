#include "src/finality/ffg.hpp"

namespace leak::finality {

FfgTracker::FfgTracker(const chain::ValidatorRegistry& registry,
                       Checkpoint genesis)
    : registry_(registry), justified_(genesis), finalized_(genesis) {
  nodes_[intern(genesis)].justified = true;
}

FfgTracker::EpochEntry& FfgTracker::epoch_entry(Epoch e) {
  if (e.value() >= epochs_.size()) epochs_.resize(e.value() + 1);
  return epochs_[e.value()];
}

const FfgTracker::Node* FfgTracker::find(const Checkpoint& c) const {
  if (c.epoch.value() >= epochs_.size()) return nullptr;
  for (const std::uint32_t i : epochs_[c.epoch.value()].nodes) {
    if (nodes_[i].checkpoint.block == c.block) return &nodes_[i];
  }
  return nullptr;
}

std::uint32_t FfgTracker::intern(const Checkpoint& c) {
  if (const Node* node = find(c)) {
    return static_cast<std::uint32_t>(node - nodes_.data());
  }
  const auto i = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{c, false, {}});
  epoch_entry(c.epoch).nodes.push_back(i);
  return i;
}

void FfgTracker::on_checkpoint_vote(const Attestation& att) {
  const std::uint32_t a = att.attester.value();
  std::vector<std::uint64_t>& counted = epoch_entry(att.target.epoch).counted;
  if (counted.size() <= a / 64) counted.resize(a / 64 + 1);
  const std::uint64_t bit = std::uint64_t{1} << (a % 64);
  if ((counted[a / 64] & bit) != 0) return;
  counted[a / 64] |= bit;
  // Intern both before taking a reference: interning grows nodes_.
  const std::uint32_t source = intern(att.source);
  const std::uint32_t target = intern(att.target);
  nodes_[target].votes.push_back(PendingVote{a, source});
}

Gwei FfgTracker::support(const Checkpoint& target) const {
  const Node* node = find(target);
  if (node == nullptr) return Gwei{};
  Gwei total{};
  for (const PendingVote& v : node->votes) {
    if (!nodes_[v.source].justified) continue;
    const ValidatorIndex attester{v.attester};
    if (!registry_.is_active(attester, target.epoch)) continue;
    total += registry_.at(attester).balance;
  }
  return total;
}

std::optional<Checkpoint> FfgTracker::process_epoch(Epoch e) {
  // Check each target of epoch e, in arrival order, for a supermajority
  // link from an already-justified source.  The order cannot change
  // the outcome: each attester counts once per target epoch, so the
  // supports of the epoch-e targets are disjoint parts of the active
  // stake and at most one of them can exceed 2/3 in a single call.
  std::optional<Checkpoint> newly_justified;
  if (e.value() >= epochs_.size()) return newly_justified;
  const Gwei total = registry_.total_active_balance(e);
  for (const std::uint32_t i : epochs_[e.value()].nodes) {
    Node& target = nodes_[i];
    if (target.votes.empty()) continue;  // seen only as a source
    const Gwei got = support(target.checkpoint);
    // Strictly more than 2/3 of the stake (supermajority).  Computed in
    // 128-bit to avoid overflow: 3*got > 2*total.
    const bool supermajority =
        3 * static_cast<__uint128_t>(got.value()) >
        2 * static_cast<__uint128_t>(total.value());
    if (!supermajority || target.justified) continue;
    target.justified = true;
    if (target.checkpoint.epoch > justified_.epoch) {
      justified_ = target.checkpoint;
    }
    newly_justified = target.checkpoint;
    // Finalization: two consecutive justified checkpoints where the
    // earlier one is the source of the later one's supermajority link.
    for (const PendingVote& v : target.votes) {
      const Node& source = nodes_[v.source];
      if (source.checkpoint.epoch.next() == e && source.justified) {
        if (source.checkpoint.epoch > finalized_.epoch) {
          finalized_ = source.checkpoint;
        }
        break;
      }
    }
  }
  return newly_justified;
}

}  // namespace leak::finality
