#include "src/chain/forkchoice.hpp"

namespace leak::chain {

ForkChoice::ForkChoice(const BlockTree& tree,
                       const ValidatorRegistry& registry)
    : tree_(tree), registry_(registry) {}

ForkChoice::ForkChoice(const BlockView& view,
                       const ValidatorRegistry& registry)
    : tree_(view.store()), view_(&view), registry_(registry) {}

void ForkChoice::on_attestation(ValidatorIndex v, const Digest& block,
                                Slot slot) {
  const auto it = votes_.find(v);
  if (it != votes_.end() && it->second.slot >= slot) return;
  votes_[v] = Vote{block, slot};
}

ForkChoice::Weights ForkChoice::weigh(Epoch e) const {
  const auto n = static_cast<std::uint32_t>(tree_.size());
  Weights w{std::vector<Gwei>(n), std::vector<std::uint32_t>(n, kNoChild)};
  for (const auto& [v, vote] : votes_) {
    if (!registry_.is_active(v, e)) continue;
    // Equivocation discounting: slashed validators' latest messages no
    // longer count toward fork choice.
    const ValidatorRecord& r = registry_.at(v);
    if (r.slashed) continue;
    // Votes for blocks this view has not received yet weigh nothing
    // (the attestation can arrive before the block it points at): a
    // block missing from the tree has no index, and a store block
    // outside the view is never folded below.
    if (const auto i = tree_.index_of(vote.block)) w.subtree[*i] += r.balance;
  }
  // Proposer boost: the current slot's timely proposal pulls extra
  // weight into every subtree that contains it.
  if (boosted_block_) {
    if (const auto i = tree_.index_of(*boosted_block_)) {
      const Gwei active = registry_.total_active_balance(e);
      w.subtree[*i] += Gwei{active.value() * boost_percent_ / 100};
    }
  }
  // Fold each block into its parent, children first, so a block's
  // subtree weight is final before it is folded; the same fold records
  // each block's heaviest child.  Ties go to the smaller block id, a
  // deterministic rule every validator shares, so the visiting order
  // does not matter as long as children come first.
  const auto fold = [&](std::uint32_t i) {
    const std::uint32_t p = tree_.parent_index(i);
    w.subtree[p] += w.subtree[i];
    std::uint32_t& best = w.best_child[p];
    if (best == kNoChild || w.subtree[i] > w.subtree[best] ||
        (w.subtree[i] == w.subtree[best] &&
         tree_.by_index(i).id < tree_.by_index(best).id)) {
      best = i;
    }
  };
  if (view_ == nullptr) {
    // Children have higher indices than their parents.
    for (std::uint32_t i = n; i-- > 1;) fold(i);
  } else {
    // A view's blocks arrived after their parents; the store's other
    // blocks weigh nothing and are nobody's child.
    const std::vector<std::uint32_t>& arrivals = view_->arrivals();
    for (std::size_t k = arrivals.size(); k-- > 1;) fold(arrivals[k]);
  }
  return w;
}

void ForkChoice::set_proposer_boost(const Digest& block, unsigned percent) {
  boosted_block_ = block;
  boost_percent_ = percent;
}

void ForkChoice::clear_proposer_boost() {
  boosted_block_.reset();
  boost_percent_ = 0;
}

Digest ForkChoice::head(const Digest& justified_root, Epoch e) const {
  const auto root = tree_.index_of(justified_root);
  if (!root || !sees(*root)) return justified_root;
  const Weights w = weigh(e);
  std::uint32_t cur = *root;
  while (w.best_child[cur] != kNoChild) cur = w.best_child[cur];
  return tree_.by_index(cur).id;
}

}  // namespace leak::chain
