// Verbatim pre-index fork choice.  See the header for the contract.
#include "tests/oracles/forkchoice_scalar.hpp"

namespace leak::oracle {

namespace {

using chain::Block;
using chain::BlockTree;
using chain::Digest;

/// Digest-walk ancestry: one hash lookup per step from `descendant`.
bool is_ancestor_scalar(const BlockTree& tree, const Digest& ancestor,
                        const Digest& descendant) {
  Digest cur = descendant;
  const Slot target_slot = tree.at(ancestor).slot;
  while (true) {
    if (cur == ancestor) return true;
    const Block& b = tree.at(cur);
    if (b.slot <= target_slot) return false;
    if (cur == tree.genesis_id()) return false;
    cur = b.parent;
  }
}

}  // namespace

Gwei forkchoice_subtree_weight_scalar(const ForkChoiceInputs& in,
                                      const Digest& root, Epoch e) {
  Gwei total{};
  for (const auto& [v, block] : in.votes) {
    if (!in.registry.is_active(v, e)) continue;
    if (in.registry.at(v).slashed) continue;
    if (!in.tree.contains(block)) continue;
    if (is_ancestor_scalar(in.tree, root, block)) {
      total += in.registry.at(v).balance;
    }
  }
  if (in.boosted_block && in.tree.contains(*in.boosted_block) &&
      is_ancestor_scalar(in.tree, root, *in.boosted_block)) {
    const Gwei active = in.registry.total_active_balance(e);
    total += Gwei{active.value() * in.boost_percent / 100};
  }
  return total;
}

Digest forkchoice_head_scalar(const ForkChoiceInputs& in,
                              const Digest& justified_root, Epoch e) {
  Digest cur = justified_root;
  while (true) {
    const auto& kids = in.tree.children(cur);
    if (kids.empty()) return cur;
    Digest best = kids.front();
    Gwei best_w = forkchoice_subtree_weight_scalar(in, best, e);
    for (std::size_t i = 1; i < kids.size(); ++i) {
      const Gwei w = forkchoice_subtree_weight_scalar(in, kids[i], e);
      if (w > best_w || (w == best_w && kids[i] < best)) {
        best = kids[i];
        best_w = w;
      }
    }
    cur = best;
  }
}

}  // namespace leak::oracle
