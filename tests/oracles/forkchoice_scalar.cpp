// Verbatim pre-index fork choice.  See the header for the contract.
// The digest lookup and the child lists this descent walks are derived
// here from the block tree's index addressing.
#include "tests/oracles/forkchoice_scalar.hpp"

#include <stdexcept>

namespace leak::oracle {

namespace {

using chain::Block;
using chain::BlockTree;
using chain::Digest;

/// Digest lookup; throws std::out_of_range for an unknown block.
const Block& at(const BlockTree& tree, const Digest& id) {
  const auto i = tree.index_of(id);
  if (!i) throw std::out_of_range("oracle: unknown block");
  return tree.by_index(*i);
}

/// Children of `id` in insertion order (none for an unknown block).
std::vector<Digest> children(const BlockTree& tree, const Digest& id) {
  std::vector<Digest> kids;
  if (const auto p = tree.index_of(id)) {
    for (std::uint32_t i = *p + 1; i < tree.size(); ++i) {
      if (tree.parent_index(i) == *p) kids.push_back(tree.by_index(i).id);
    }
  }
  return kids;
}

/// Digest-walk ancestry: one hash lookup per step from `descendant`.
bool is_ancestor_scalar(const BlockTree& tree, const Digest& ancestor,
                        const Digest& descendant) {
  Digest cur = descendant;
  const Slot target_slot = at(tree, ancestor).slot;
  while (true) {
    if (cur == ancestor) return true;
    const Block& b = at(tree, cur);
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
    if (!in.tree.index_of(block)) continue;
    if (is_ancestor_scalar(in.tree, root, block)) {
      total += in.registry.at(v).balance;
    }
  }
  if (in.boosted_block && in.tree.index_of(*in.boosted_block) &&
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
    const auto kids = children(in.tree, cur);
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
