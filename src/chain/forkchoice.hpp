// LMD-GHOST fork choice (latest-message-driven, greediest heaviest
// observed sub-tree), stake-weighted, starting from the justified
// checkpoint — the "fork choice rule" of Section 3.2.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chain/blocktree.hpp"
#include "src/chain/registry.hpp"

namespace leak::chain {

/// Fork choice state: remembers each validator's latest block vote and
/// selects the head by greedily descending into the heaviest subtree.
///
/// Every query makes one pass over the votes and one over the tree:
/// each counted vote credits its block's index, the weights fold child
/// to parent, children first, and the same fold records each block's
/// heaviest child.  Weights are integer Gwei, so the sums do not depend
/// on the vote order.
///
/// A fork choice weighs either a whole tree (folded in reverse
/// insertion order; parents precede children) or one validator's view
/// of a shared store (folded in reverse arrival order, over the view's
/// blocks only, at their store indices).  Since sums are order-free and
/// ties go to the smaller id, a view's head equals that of a standalone
/// tree holding just the view's blocks.
class ForkChoice {
 public:
  ForkChoice(const BlockTree& tree, const ValidatorRegistry& registry);
  ForkChoice(const BlockView& view, const ValidatorRegistry& registry);

  /// Record a block vote.  Only the latest (by slot) vote per validator
  /// counts; stale votes are ignored.
  void on_attestation(ValidatorIndex v, const Digest& block, Slot slot);

  /// Proposer boost: credit the current slot's timely proposal with
  /// extra weight (a percentage of the total active balance, 40% on
  /// mainnet) until cleared at the next slot.
  void set_proposer_boost(const Digest& block, unsigned percent = 40);
  void clear_proposer_boost();

  /// Compute the head starting from `justified_root` at epoch `e`
  /// (stake weights are read at epoch e; exited validators weigh 0).
  /// At each block the heavier child wins; equal weights go to the
  /// smaller block id.  A root missing from the tree is its own head.
  [[nodiscard]] Digest head(const Digest& justified_root, Epoch e) const;

 private:
  struct Vote {
    Digest block{};
    Slot slot{};
  };

  /// One weighing pass, index-addressed like the tree.
  struct Weights {
    std::vector<Gwei> subtree;
    /// Heaviest child per block; kNoChild for a leaf.
    std::vector<std::uint32_t> best_child;
  };
  static constexpr std::uint32_t kNoChild = ~std::uint32_t{0};

  [[nodiscard]] Weights weigh(Epoch e) const;
  /// Is store block `i` in the weighed tree or view?
  [[nodiscard]] bool sees(std::uint32_t i) const {
    return view_ == nullptr || view_->contains(i);
  }

  const BlockTree& tree_;
  /// The view being weighed; nullptr weighs all of `tree_`.
  const BlockView* view_ = nullptr;
  const ValidatorRegistry& registry_;
  std::unordered_map<ValidatorIndex, Vote> votes_;
  std::optional<Digest> boosted_block_;
  unsigned boost_percent_ = 0;
};

}  // namespace leak::chain
