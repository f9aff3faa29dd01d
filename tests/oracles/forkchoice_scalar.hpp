// Pre-index LMD-GHOST fork choice, demoted to a test oracle.
//
// The verbatim per-child descent `chain::ForkChoice` shipped before the
// block tree became index-addressed: every child on the descent path
// is weighed by a scan of every vote, each walked up the tree by
// digest lookups.  Quadratic in the tree depth, and kept only to be
// compared against by the fork-choice property test
// (tests/test_forkchoice_ext.cpp).
//
// Do not "fix" or modernize this code: its value is that it does not
// change.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "src/chain/blocktree.hpp"
#include "src/chain/registry.hpp"

namespace leak::oracle {

/// Everything the fork choice reads: the view's tree, the registry,
/// the latest block vote of each voter, and the proposer boost.
struct ForkChoiceInputs {
  const chain::BlockTree& tree;
  const chain::ValidatorRegistry& registry;
  std::vector<std::pair<ValidatorIndex, chain::Digest>> votes;
  std::optional<chain::Digest> boosted_block;
  unsigned boost_percent = 0;
};

/// Total stake voting inside the subtree rooted at `root` at epoch `e`.
Gwei forkchoice_subtree_weight_scalar(const ForkChoiceInputs& in,
                                      const chain::Digest& root, Epoch e);

/// Greedy heaviest-child descent from `justified_root`; equal weights go
/// to the smaller block id.
chain::Digest forkchoice_head_scalar(const ForkChoiceInputs& in,
                                     const chain::Digest& justified_root,
                                     Epoch e);

}  // namespace leak::oracle
