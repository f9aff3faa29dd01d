// Tests for chain data types, the block tree and the validator registry.
#include <gtest/gtest.h>

#include "src/chain/block.hpp"
#include "src/chain/blocktree.hpp"
#include "src/chain/registry.hpp"

namespace leak::chain {
namespace {

TEST(Types, SlotEpochArithmetic) {
  EXPECT_EQ(epoch_of(Slot{0}), Epoch{0});
  EXPECT_EQ(epoch_of(Slot{31}), Epoch{0});
  EXPECT_EQ(epoch_of(Slot{32}), Epoch{1});
  EXPECT_EQ(Epoch{2}.start_slot(), Slot{64});
  EXPECT_TRUE(Slot{64}.is_epoch_boundary());
  EXPECT_FALSE(Slot{65}.is_epoch_boundary());
}

TEST(Types, GweiSaturatesAtZero) {
  Gwei a = Gwei::from_eth(1.0);
  Gwei b = Gwei::from_eth(2.0);
  b -= a;
  EXPECT_DOUBLE_EQ(b.eth(), 1.0);
  a -= Gwei::from_eth(2.0);
  EXPECT_EQ(a.value(), 0u);
  EXPECT_DOUBLE_EQ(Gwei::from_eth(32.0).eth(), 32.0);
}

TEST(BlockTest, IdDependsOnContent) {
  const Digest parent{};
  const Block a = Block::make(parent, Slot{1}, ValidatorIndex{0});
  const Block b = Block::make(parent, Slot{2}, ValidatorIndex{0});
  const Block c = Block::make(parent, Slot{1}, ValidatorIndex{1});
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(a.id, c.id);
  EXPECT_EQ(a.id, Block::make(parent, Slot{1}, ValidatorIndex{0}).id);
}

TEST(Slashable, DoubleVoteDetected) {
  Attestation a, b;
  a.attester = b.attester = ValidatorIndex{7};
  a.target.epoch = b.target.epoch = Epoch{4};
  a.target.block = crypto::sha256("chain A");
  b.target.block = crypto::sha256("chain B");
  EXPECT_TRUE(is_slashable_pair(a, b));
}

TEST(Slashable, SameDataNotSlashable) {
  Attestation a;
  a.attester = ValidatorIndex{7};
  a.target.epoch = Epoch{4};
  EXPECT_FALSE(is_slashable_pair(a, a));
}

TEST(Slashable, SurroundVoteDetected) {
  Attestation outer, inner;
  outer.attester = inner.attester = ValidatorIndex{2};
  outer.source.epoch = Epoch{1};
  outer.target.epoch = Epoch{6};
  inner.source.epoch = Epoch{2};
  inner.target.epoch = Epoch{5};
  EXPECT_TRUE(is_slashable_pair(outer, inner));
  EXPECT_TRUE(is_slashable_pair(inner, outer));
}

TEST(Slashable, DifferentValidatorsNever) {
  Attestation a, b;
  a.attester = ValidatorIndex{1};
  b.attester = ValidatorIndex{2};
  a.target.epoch = b.target.epoch = Epoch{4};
  b.target.block = crypto::sha256("other");
  EXPECT_FALSE(is_slashable_pair(a, b));
}

TEST(Slashable, AdjacentEpochsNotSurround) {
  Attestation a, b;
  a.attester = b.attester = ValidatorIndex{1};
  a.source.epoch = Epoch{1};
  a.target.epoch = Epoch{2};
  b.source.epoch = Epoch{2};
  b.target.epoch = Epoch{3};
  EXPECT_FALSE(is_slashable_pair(a, b));
}

class TreeFixture : public ::testing::Test {
 protected:
  BlockTree tree;

  Block add(const Digest& parent, std::uint64_t slot, std::uint32_t proposer) {
    const Block b = Block::make(parent, Slot{slot}, ValidatorIndex{proposer});
    tree.insert(b);
    return b;
  }

  /// Blocks no other block names as parent, in insertion order.
  [[nodiscard]] std::vector<Digest> leaves() const {
    std::vector<std::uint8_t> has_child(tree.size(), 0);
    for (std::uint32_t i = 1; i < tree.size(); ++i) {
      has_child[tree.parent_index(i)] = 1;
    }
    std::vector<Digest> out;
    for (std::uint32_t i = 0; i < tree.size(); ++i) {
      if (has_child[i] == 0) out.push_back(tree.by_index(i).id);
    }
    return out;
  }

  /// The store index of a block in the tree.
  [[nodiscard]] std::uint32_t at(const Digest& id) const {
    return *tree.index_of(id);
  }
};

TEST_F(TreeFixture, GenesisPresent) {
  EXPECT_EQ(tree.index_of(tree.genesis_id()), 0u);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.by_index(0).slot, Slot{0});
}

TEST_F(TreeFixture, InsertAndLookup) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const auto i = tree.index_of(b1.id);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(tree.by_index(*i).parent, tree.genesis_id());
  EXPECT_EQ(tree.parent_index(*i), 0u);
}

TEST_F(TreeFixture, DuplicateInsertIsNoop) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  EXPECT_FALSE(tree.insert(b1));
  EXPECT_EQ(tree.size(), 2u);
}

TEST_F(TreeFixture, UnknownParentThrows) {
  const Block orphan = Block::make(crypto::sha256("nowhere"), Slot{5},
                                   ValidatorIndex{0});
  EXPECT_THROW(tree.insert(orphan), std::invalid_argument);
}

TEST_F(TreeFixture, NonIncreasingSlotThrows) {
  const Block b1 = add(tree.genesis_id(), 3, 0);
  const Block bad = Block::make(b1.id, Slot{3}, ValidatorIndex{1});
  EXPECT_THROW(tree.insert(bad), std::invalid_argument);
}

TEST_F(TreeFixture, AncestryOnFork) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const Block a2 = add(b1.id, 2, 1);
  const Block b2 = add(b1.id, 3, 2);  // fork
  const Block a3 = add(a2.id, 4, 3);
  EXPECT_TRUE(tree.is_ancestor(b1.id, a3.id));
  EXPECT_TRUE(tree.is_ancestor(tree.genesis_id(), b2.id));
  EXPECT_FALSE(tree.is_ancestor(b2.id, a3.id));
  EXPECT_FALSE(tree.is_ancestor(a2.id, b2.id));
  EXPECT_TRUE(tree.is_ancestor(a3.id, a3.id));
}

TEST_F(TreeFixture, AncestorAtSlot) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const Block b2 = add(b1.id, 5, 1);
  const Block b3 = add(b2.id, 40, 2);
  EXPECT_EQ(tree.ancestor_at_slot(at(b3.id), Slot{39}), at(b2.id));
  EXPECT_EQ(tree.ancestor_at_slot(at(b3.id), Slot{40}), at(b3.id));
  EXPECT_EQ(tree.ancestor_at_slot(at(b3.id), Slot{1}), at(b1.id));
  EXPECT_EQ(tree.ancestor_at_slot(at(b3.id), Slot{0}), 0u);
}

TEST_F(TreeFixture, LeavesOnFork) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const Block a2 = add(b1.id, 2, 1);
  const Block b2 = add(b1.id, 3, 2);
  EXPECT_EQ(leaves(), (std::vector<Digest>{a2.id, b2.id}));
}

TEST_F(TreeFixture, LeavesInInsertionOrder) {
  // Leaves come back in insertion order, whatever their digests.
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const Block c1 = add(tree.genesis_id(), 2, 1);
  const Block b2 = add(b1.id, 3, 2);
  const Block d1 = add(tree.genesis_id(), 4, 3);
  const Block c2 = add(c1.id, 5, 4);
  EXPECT_EQ(leaves(), (std::vector<Digest>{b2.id, d1.id, c2.id}));
}

TEST_F(TreeFixture, IndexAddressing) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const Block a2 = add(b1.id, 2, 1);
  const Block b2 = add(b1.id, 3, 2);
  EXPECT_EQ(tree.index_of(tree.genesis_id()), 0u);
  EXPECT_EQ(tree.index_of(b2.id), 3u);
  EXPECT_FALSE(tree.index_of(crypto::sha256("nowhere")).has_value());
  EXPECT_EQ(tree.parent_index(0), 0u);  // genesis is its own parent
  EXPECT_EQ(tree.parent_index(2), 1u);
  EXPECT_EQ(tree.parent_index(3), 1u);
  EXPECT_EQ(tree.by_index(2).id, a2.id);
  // A duplicate insert keeps the first index.
  EXPECT_FALSE(tree.insert(a2));
  EXPECT_EQ(tree.index_of(a2.id), 2u);
}

TEST_F(TreeFixture, UnknownBlocksThrow) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const Digest unknown = crypto::sha256("nowhere");
  EXPECT_THROW(static_cast<void>(tree.is_ancestor(unknown, b1.id)),
               std::out_of_range);
  EXPECT_THROW(static_cast<void>(tree.is_ancestor(b1.id, unknown)),
               std::out_of_range);
  EXPECT_THROW(static_cast<void>(tree.ancestor_at_slot(
                   static_cast<std::uint32_t>(tree.size()), Slot{0})),
               std::out_of_range);
}

TEST_F(TreeFixture, CheckpointOnBranchUsesBoundaryOrEarlier) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const Block b32 = add(b1.id, 32, 1);  // exactly at epoch-1 boundary
  const Block b40 = add(b32.id, 40, 2);
  const Checkpoint cp1 = tree.checkpoint_on_branch(at(b40.id), Epoch{1});
  EXPECT_EQ(cp1.block, b32.id);
  EXPECT_EQ(cp1.epoch, Epoch{1});
  // Epoch 2 boundary (slot 64) is empty: latest ancestor applies.
  const Block b70 = add(b40.id, 70, 3);
  const Checkpoint cp2 = tree.checkpoint_on_branch(at(b70.id), Epoch{2});
  EXPECT_EQ(cp2.block, b40.id);
}

TEST(Registry, InitialBalances) {
  ValidatorRegistry reg(4);
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_DOUBLE_EQ(reg.at(ValidatorIndex{0}).balance.eth(), 32.0);
  EXPECT_DOUBLE_EQ(reg.total_active_balance(Epoch{0}).eth(), 128.0);
}

TEST(Registry, EjectionRemovesFromActiveSet) {
  ValidatorRegistry reg(3);
  reg.eject(ValidatorIndex{1}, Epoch{5});
  EXPECT_TRUE(reg.is_active(ValidatorIndex{1}, Epoch{4}));
  EXPECT_FALSE(reg.is_active(ValidatorIndex{1}, Epoch{5}));
  EXPECT_DOUBLE_EQ(reg.total_active_balance(Epoch{5}).eth(), 64.0);
}

TEST(Registry, EjectionIdempotentKeepsFirstEpoch) {
  ValidatorRegistry reg(2);
  reg.eject(ValidatorIndex{0}, Epoch{3});
  reg.eject(ValidatorIndex{0}, Epoch{9});
  EXPECT_FALSE(reg.is_active(ValidatorIndex{0}, Epoch{3}));
}

TEST(Registry, BalanceWherePredicate) {
  ValidatorRegistry reg(4);
  reg.at(ValidatorIndex{2}).balance = Gwei::from_eth(10.0);
  const Gwei low = reg.balance_where([](ValidatorIndex, const ValidatorRecord& r) {
    return r.balance < Gwei::from_eth(32.0);
  });
  EXPECT_DOUBLE_EQ(low.eth(), 10.0);
}

TEST(Registry, ZeroValidatorsThrows) {
  EXPECT_THROW(ValidatorRegistry(0), std::invalid_argument);
}

}  // namespace
}  // namespace leak::chain
