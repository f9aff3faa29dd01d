#include "src/chain/blocktree.hpp"

#include <stdexcept>

namespace leak::chain {

BlockTree::BlockTree() {
  const Block g = Block::make(Digest{}, Slot{0}, ValidatorIndex{0});
  blocks_.push_back(g);
  parent_.push_back(0);
  index_.emplace(g.id, 0);
}

bool BlockTree::insert(const Block& b) {
  if (index_.contains(b.id)) return false;
  const auto parent_it = index_.find(b.parent);
  if (parent_it == index_.end()) {
    throw std::invalid_argument("BlockTree::insert: unknown parent");
  }
  const std::uint32_t parent = parent_it->second;
  if (b.slot <= blocks_[parent].slot) {
    throw std::invalid_argument("BlockTree::insert: slot not increasing");
  }
  const auto i = static_cast<std::uint32_t>(blocks_.size());
  blocks_.push_back(b);
  parent_.push_back(parent);
  index_.emplace(b.id, i);
  return true;
}

std::optional<std::uint32_t> BlockTree::index_of(const Digest& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::uint32_t BlockTree::require(const Digest& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    throw std::out_of_range("BlockTree: unknown block");
  }
  return it->second;
}

bool BlockTree::is_ancestor(const Digest& ancestor,
                            const Digest& descendant) const {
  const std::uint32_t a = require(ancestor);
  std::uint32_t d = require(descendant);
  // Parents precede children, so the walk can stop below `a`.
  while (d > a) d = parent_[d];
  return d == a;
}

std::uint32_t BlockTree::ancestor_at_slot(std::uint32_t i, Slot slot) const {
  if (i >= blocks_.size()) {
    throw std::out_of_range("BlockTree: unknown block");
  }
  while (i != 0 && blocks_[i].slot > slot) i = parent_[i];
  return i;
}

Checkpoint BlockTree::checkpoint_on_branch(std::uint32_t head,
                                           Epoch epoch) const {
  return Checkpoint{blocks_[ancestor_at_slot(head, epoch.start_slot())].id,
                    epoch};
}

BlockView::BlockView(const BlockTree& store)
    : store_(&store), has_{1}, arrivals_{0} {}

bool BlockView::insert(std::uint32_t i) {
  if (i >= store_->size()) {
    throw std::out_of_range("BlockView::insert: unknown block");
  }
  if (contains(i)) return false;
  if (!contains(store_->parent_index(i))) {
    throw std::invalid_argument("BlockView::insert: parent not in view");
  }
  if (i >= has_.size()) has_.resize(store_->size());
  has_[i] = 1;
  arrivals_.push_back(i);
  return true;
}

}  // namespace leak::chain
