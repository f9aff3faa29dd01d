#include "src/chain/forkchoice.hpp"

namespace leak::chain {

ForkChoice::ForkChoice(const BlockTree& tree,
                       const ValidatorRegistry& registry)
    : tree_(tree), registry_(registry) {}

ForkChoice::ForkChoice(const BlockView& view,
                       const ValidatorRegistry& registry, Scratch* scratch)
    : tree_(view.store()), view_(&view), registry_(registry),
      shared_(scratch) {}

bool ForkChoice::vote(ValidatorIndex v, std::uint32_t block, Slot slot) {
  if (v.value() >= votes_.size()) votes_.resize(v.value() + std::size_t{1});
  Vote& latest = votes_[v.value()];
  if (latest.block != kNone && latest.slot >= slot) return false;
  if (latest.block == kUnresolved) {
    std::erase_if(unresolved_,
                  [&v](const auto& u) { return u.first == v.value(); });
  }
  latest = Vote{block, slot};
  return true;
}

void ForkChoice::on_attestation(ValidatorIndex v, const Digest& block,
                                Slot slot) {
  const auto i = tree_.index_of(block);
  if (vote(v, i ? *i : kUnresolved, slot) && !i) {
    unresolved_.emplace_back(v.value(), block);
  }
}

void ForkChoice::on_attestation(ValidatorIndex v, std::uint32_t block,
                                Slot slot) {
  vote(v, block, slot);
}

void ForkChoice::weigh(std::uint32_t root, Epoch e) const {
  // A vote whose block has reached the store since is resolved now,
  // once.
  std::erase_if(unresolved_, [this](const auto& u) {
    const auto i = tree_.index_of(u.second);
    if (i) votes_[u.first].block = *i;
    return i.has_value();
  });
  const auto n = static_cast<std::uint32_t>(tree_.size());
  Scratch& s = scratch();
  if (s.entries.size() < n) s.entries.resize(n);
  if (++s.generation == 0) {  // wrapped: every stamp must go stale
    for (Scratch::Entry& x : s.entries) x.stamp = 0;
    s.generation = 1;
  }
  const auto entry = [&s](std::uint32_t i) -> Scratch::Entry& {
    Scratch::Entry& x = s.entries[i];
    if (x.stamp != s.generation) {
      x = Scratch::Entry{Gwei{}, kNone, i, s.generation};
    }
    return x;
  };
  entry(root);
  for (std::size_t v = 0; v < votes_.size(); ++v) {
    const std::uint32_t block = votes_[v].block;
    // No vote, a block the store lacks, or one above the root (every
    // block below the root has a higher index): no weight here.  A
    // store block outside the view is credited but never folded below,
    // so it weighs nothing either (the attestation can arrive before
    // the block it points at).
    if (block < root || block >= n) continue;
    const ValidatorIndex who{static_cast<std::uint32_t>(v)};
    if (!registry_.is_active(who, e)) continue;
    // Equivocation discounting: slashed validators' latest messages no
    // longer count toward fork choice.
    const ValidatorRecord& r = registry_.at(who);
    if (r.slashed) continue;
    entry(block).subtree += r.balance;
  }
  // Proposer boost: the current slot's timely proposal pulls extra
  // weight into every subtree that contains it.
  if (boosted_ >= root && boosted_ < n) {
    const Gwei active = registry_.total_active_balance(e);
    entry(boosted_).subtree += Gwei{active.value() * boost_percent_ / 100};
  }
  // Fold each block into its parent, children first, so a block's
  // subtree weight and best leaf are final before it is folded; the
  // same fold records each block's heaviest child and takes over that
  // child's best leaf.  Ties go to the smaller block id, a
  // deterministic rule every validator shares, so the visiting order
  // does not matter as long as children come first.  A block whose
  // parent is above the root is not below it.
  const auto fold = [&](std::uint32_t i) {
    const std::uint32_t p = tree_.parent_index(i);
    if (p < root) return;
    const Scratch::Entry& child = entry(i);
    Scratch::Entry& parent = entry(p);
    parent.subtree += child.subtree;
    const std::uint32_t best = parent.best_child;
    if (best == kNone || child.subtree > s.entries[best].subtree ||
        (child.subtree == s.entries[best].subtree &&
         tree_.by_index(i).id < tree_.by_index(best).id)) {
      parent.best_child = i;
      parent.best_leaf = child.best_leaf;
    }
  };
  if (view_ == nullptr) {
    // Children have higher indices than their parents.
    for (std::uint32_t i = n; i-- > root + 1;) fold(i);
  } else {
    // A view's blocks arrived after their parents, so the root's
    // subtree arrived after the root; the store's other blocks weigh
    // nothing and are nobody's child.
    const std::vector<std::uint32_t>& arrivals = view_->arrivals();
    for (std::size_t k = arrivals.size(); k-- > 0 && arrivals[k] != root;) {
      fold(arrivals[k]);
    }
  }
}

void ForkChoice::set_proposer_boost(std::uint32_t block, unsigned percent) {
  boosted_ = block;
  boost_percent_ = percent;
}

void ForkChoice::clear_proposer_boost() {
  boosted_ = kNone;
  boost_percent_ = 0;
}

std::uint32_t ForkChoice::head(std::uint32_t root, Epoch e) const {
  if (!sees(root)) return root;
  weigh(root, e);
  return scratch().entries[root].best_leaf;
}

Digest ForkChoice::head(const Digest& justified_root, Epoch e) const {
  const auto root = tree_.index_of(justified_root);
  if (!root || !sees(*root)) return justified_root;
  return tree_.by_index(head(*root, e)).id;
}

}  // namespace leak::chain
