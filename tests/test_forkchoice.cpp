// Tests for stake-weighted LMD-GHOST fork choice.
#include <gtest/gtest.h>

#include "src/chain/forkchoice.hpp"

namespace leak::chain {
namespace {

class ForkChoiceFixture : public ::testing::Test {
 protected:
  ForkChoiceFixture() : registry(8), fc(tree, registry) {}

  Block add(const Digest& parent, std::uint64_t slot, std::uint32_t proposer) {
    const Block b = Block::make(parent, Slot{slot}, ValidatorIndex{proposer});
    tree.insert(b);
    return b;
  }

  BlockTree tree;
  ValidatorRegistry registry;
  ForkChoice fc;
};

TEST_F(ForkChoiceFixture, NoVotesPicksDeterministicLeaf) {
  const Block b1 = add(tree.genesis_id(), 1, 0);
  const Digest head = fc.head(tree.genesis_id(), Epoch{0});
  EXPECT_EQ(head, b1.id);
}

TEST_F(ForkChoiceFixture, MajorityStakeWins) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  // 3 votes for a, 1 vote for b; equal stakes.
  fc.on_attestation(ValidatorIndex{0}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{1}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{2}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{3}, b.id, Slot{3});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), a.id);
}

TEST_F(ForkChoiceFixture, StakeWeightBeatsCount) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  registry.at(ValidatorIndex{0}).balance = Gwei::from_eth(100.0);
  fc.on_attestation(ValidatorIndex{0}, b.id, Slot{3});
  fc.on_attestation(ValidatorIndex{1}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{2}, a.id, Slot{3});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), b.id);
}

TEST_F(ForkChoiceFixture, LatestMessageReplacesOlder) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  fc.on_attestation(ValidatorIndex{0}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{0}, b.id, Slot{4});  // newer
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), b.id);
  // Stale vote does not replace.
  fc.on_attestation(ValidatorIndex{0}, a.id, Slot{2});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), b.id);
}

TEST_F(ForkChoiceFixture, VotesForDescendantsCountForAncestors) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block a2 = add(a.id, 3, 2);
  const Block b = add(tree.genesis_id(), 2, 1);
  fc.on_attestation(ValidatorIndex{0}, a2.id, Slot{4});
  fc.on_attestation(ValidatorIndex{1}, a2.id, Slot{4});
  fc.on_attestation(ValidatorIndex{2}, b.id, Slot{4});
  // `a` has no direct votes, but its subtree carries 2 via a2 and
  // outweighs b's 1.
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), a2.id);
}

TEST_F(ForkChoiceFixture, ExitedValidatorsWeighZero) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  fc.on_attestation(ValidatorIndex{0}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{1}, b.id, Slot{3});
  fc.on_attestation(ValidatorIndex{2}, b.id, Slot{3});
  registry.eject(ValidatorIndex{1}, Epoch{0});
  registry.eject(ValidatorIndex{2}, Epoch{0});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), a.id);
}

TEST_F(ForkChoiceFixture, TieBreaksOnBlockId) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  // No votes at all: deterministic minimum id wins.
  const Digest expected = std::min(a.id, b.id);
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), expected);
}

TEST_F(ForkChoiceFixture, HeadFromJustifiedRootIgnoresOtherBranch) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  const Block b2 = add(b.id, 3, 2);
  // Everyone votes on branch b, but head is computed from root a.
  fc.on_attestation(ValidatorIndex{0}, b2.id, Slot{4});
  EXPECT_EQ(fc.head(a.id, Epoch{0}), a.id);
}

TEST_F(ForkChoiceFixture, DeepChainWalk) {
  Digest tip = tree.genesis_id();
  for (std::uint64_t s = 1; s <= 100; ++s) {
    tip = add(tip, s, static_cast<std::uint32_t>(s % 8)).id;
  }
  fc.on_attestation(ValidatorIndex{0}, tip, Slot{101});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), tip);
}

}  // namespace
}  // namespace leak::chain
