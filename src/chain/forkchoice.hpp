// LMD-GHOST fork choice (latest-message-driven, greediest heaviest
// observed sub-tree), stake-weighted, starting from the justified
// checkpoint — the "fork choice rule" of Section 3.2.
//
// Blocks are named by their index in the shared block store, so a
// query maps no digest back, and it weighs only the part of the tree
// or view that arrived after the justified root: its cost does not
// grow with the history below the root.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/chain/blocktree.hpp"
#include "src/chain/registry.hpp"

namespace leak::chain {

/// Fork choice state: remembers each validator's latest block vote and
/// selects the head by greedily descending into the heaviest subtree.
///
/// Votes sit in a vector indexed by validator, each naming its block by
/// store index: a vote given by digest is resolved once, when its block
/// is in the store (a vote may arrive before its block).  A query
/// weighs only the justified root's subtree: every block below the root
/// has a higher store index and arrived later, so one pass over the
/// votes credits the blocks from the root on, and one fold, children
/// first, over the blocks inserted (or, in a view, received) after the
/// root makes each subtree weight final and records each block's
/// heaviest child and the leaf its heaviest-child links lead to, so
/// the head is read off the root.  The weights go into
/// generation-stamped buffers that a query never clears, so it costs
/// the votes plus the blocks after the root, not the store's size; the
/// buffers are reused from query to query and may be shared by fork
/// choices that never query at once (a simulation's views).  So one
/// fork choice serves one thread at a time, even through its const
/// queries.  Weights are read from the registry at every query, so
/// slashings, exits and the epoch argument count as soon as they
/// change.  Weights are integer Gwei, so the sums do not depend on the
/// vote order, and equal weights go to the smaller block id: a view's
/// head equals that of a standalone tree holding just the view's
/// blocks.
class ForkChoice {
 public:
  /// What a query fills, by store index: each block's subtree weight,
  /// its heaviest child (kNone for a leaf) and the leaf that the
  /// heaviest-child links lead to from it.  An entry counts only when
  /// its stamp is the query's generation, so a query clears nothing up
  /// front and costs what it touches, not the size of the store.
  struct Scratch {
    struct Entry {
      Gwei subtree{};
      std::uint32_t best_child = 0;
      std::uint32_t best_leaf = 0;
      std::uint32_t stamp = 0;
    };
    std::vector<Entry> entries;
    std::uint32_t generation = 0;
  };

  ForkChoice(const BlockTree& tree, const ValidatorRegistry& registry);
  /// `scratch`, when given, must outlive the fork choice and is shared
  /// with others that never query at the same time.
  ForkChoice(const BlockView& view, const ValidatorRegistry& registry,
             Scratch* scratch = nullptr);

  /// Record a block vote.  Only the latest (by slot) vote per validator
  /// counts; stale votes are ignored.
  void on_attestation(ValidatorIndex v, const Digest& block, Slot slot);
  /// The same for a vote whose block is store block `block`.
  void on_attestation(ValidatorIndex v, std::uint32_t block, Slot slot);

  /// Proposer boost: credit the current slot's timely proposal, store
  /// block `block`, with extra weight (a percentage of the total active
  /// balance, 40% on mainnet) until cleared at the next slot.  A block
  /// the tree or view does not hold weighs nothing.
  void set_proposer_boost(std::uint32_t block, unsigned percent = 40);
  void clear_proposer_boost();

  /// Compute the head starting from `justified_root` at epoch `e`
  /// (stake weights are read at epoch e; exited validators weigh 0).
  /// At each block the heavier child wins; equal weights go to the
  /// smaller block id.  A root missing from the tree is its own head.
  [[nodiscard]] Digest head(const Digest& justified_root, Epoch e) const;
  /// The same from store block `root`, returning the head's store
  /// index; a root the tree or view lacks is its own head.
  [[nodiscard]] std::uint32_t head(std::uint32_t root, Epoch e) const;

 private:
  /// Store index of no block at all, and of a vote whose block the
  /// store lacked when it was given (its digest waits in `unresolved_`
  /// until a query finds it in the store).
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint32_t kUnresolved = kNone - 1;

  struct Vote {
    std::uint32_t block = kNone;
    Slot slot{};
  };

  /// Record `v`'s vote for `block` unless it is stale; true if recorded.
  bool vote(ValidatorIndex v, std::uint32_t block, Slot slot);
  /// Fill the scratch buffers for the subtree of `root`.
  void weigh(std::uint32_t root, Epoch e) const;
  [[nodiscard]] Scratch& scratch() const {
    return shared_ != nullptr ? *shared_ : own_;
  }
  /// Is store block `i` in the weighed tree or view?
  [[nodiscard]] bool sees(std::uint32_t i) const {
    return view_ == nullptr ? i < tree_.size() : view_->contains(i);
  }

  const BlockTree& tree_;
  /// The view being weighed; nullptr weighs all of `tree_`.
  const BlockView* view_ = nullptr;
  const ValidatorRegistry& registry_;
  /// Latest vote by validator index; kNone marks no vote yet.
  mutable std::vector<Vote> votes_;
  /// The digests of the kUnresolved votes, by validator.
  mutable std::vector<std::pair<std::uint32_t, Digest>> unresolved_;
  std::uint32_t boosted_ = kNone;
  unsigned boost_percent_ = 0;
  Scratch* shared_ = nullptr;
  mutable Scratch own_;
};

}  // namespace leak::chain
