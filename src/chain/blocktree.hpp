// The local tree of blocks every validator maintains (Section 2 of the
// paper: "a local data structure in form of a tree containing all the
// blocks perceived").
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chain/block.hpp"

namespace leak::chain {

/// Append-only block tree rooted at a genesis block.
///
/// Blocks are index-addressed: each block gets the next index on
/// insertion, and since a parent must be known before its child, every
/// parent index is lower than its children's.  Ancestry walks follow
/// the parent-index array; the digest map is consulted once per call.
/// References into the tree (`by_index`) are invalidated by `insert`.
class BlockTree {
 public:
  /// Create a tree with a genesis block at slot 0 (index 0).
  BlockTree();

  [[nodiscard]] Digest genesis_id() const { return blocks_.front().id; }

  /// Insert a block.  The parent must already be known and have a lower
  /// slot.  Returns false (no-op) when the block is already present;
  /// throws on an unknown parent or non-increasing slot.
  bool insert(const Block& b);

  [[nodiscard]] std::size_t size() const { return blocks_.size(); }

  /// Is `ancestor` on the path from `descendant` to genesis (inclusive)?
  [[nodiscard]] bool is_ancestor(const Digest& ancestor,
                                 const Digest& descendant) const;

  /// The index of the ancestor of block `i` with the highest slot <=
  /// `slot` (used to find the epoch-boundary block for checkpoints).
  /// Throws std::out_of_range for an index past the end.
  [[nodiscard]] std::uint32_t ancestor_at_slot(std::uint32_t i,
                                               Slot slot) const;

  /// The epoch-boundary checkpoint for `epoch` on the branch ending at
  /// block `head`: the block of the first slot of the epoch or, when
  /// that slot was empty, the latest ancestor before it.
  [[nodiscard]] Checkpoint checkpoint_on_branch(std::uint32_t head,
                                                Epoch epoch) const;

  // ---- index addressing (insertion order; genesis is index 0) ------

  /// Index of a block, or nullopt when it is not in the tree.
  [[nodiscard]] std::optional<std::uint32_t> index_of(const Digest& id) const;
  /// Parent index of block `i`; genesis is its own parent.  Always
  /// lower than `i` for every other block.
  [[nodiscard]] std::uint32_t parent_index(std::uint32_t i) const {
    return parent_[i];
  }
  /// The block at index `i`.
  [[nodiscard]] const Block& by_index(std::uint32_t i) const {
    return blocks_[i];
  }

 private:
  /// Index of a known block; throws std::out_of_range otherwise.
  [[nodiscard]] std::uint32_t require(const Digest& id) const;

  std::vector<Block> blocks_;
  std::vector<std::uint32_t> parent_;
  std::unordered_map<Digest, std::uint32_t, DigestHash> index_;
};

/// One validator's share of a shared BlockTree: which of the store's
/// blocks it has received.  A view keeps a membership byte per store
/// block and its blocks' store indices in arrival order, not a copy of
/// the blocks.  It is parent-closed: a block joins only once its parent
/// is in the view, so ancestry, checkpoints and block content are read
/// from the store.  The store must outlive the view.
class BlockView {
 public:
  /// A view holding only the store's genesis.
  explicit BlockView(const BlockTree& store);

  [[nodiscard]] const BlockTree& store() const { return *store_; }

  [[nodiscard]] bool contains(std::uint32_t i) const {
    return i < has_.size() && has_[i] != 0;
  }

  /// Add store block `i`.  Its parent must already be in the view.
  /// Returns false (no-op) when the block is already present; throws
  /// when the parent is missing.
  bool insert(std::uint32_t i);

  /// Store indices of the view's blocks in arrival order, genesis
  /// first: every block comes after its parent.
  [[nodiscard]] const std::vector<std::uint32_t>& arrivals() const {
    return arrivals_;
  }

  /// Blocks in the view, genesis included.
  [[nodiscard]] std::size_t size() const { return arrivals_.size(); }

 private:
  const BlockTree* store_;
  /// One byte per store block (leaklint D3: no vector<bool>).
  std::vector<std::uint8_t> has_;
  std::vector<std::uint32_t> arrivals_;
};

}  // namespace leak::chain
