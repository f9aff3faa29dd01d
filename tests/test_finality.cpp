// Tests for FFG justification/finalization and the safety monitor.
#include <gtest/gtest.h>

#include "src/chain/blocktree.hpp"
#include "src/finality/ffg.hpp"
#include "src/finality/safety.hpp"

namespace leak::finality {
namespace {

using chain::Block;
using chain::BlockTree;
using chain::ValidatorRegistry;

class FfgFixture : public ::testing::Test {
 protected:
  FfgFixture()
      : registry(9),
        genesis{tree.genesis_id(), Epoch{0}},
        ffg(registry, genesis) {}

  Checkpoint make_checkpoint(Epoch e, const std::string& tag) {
    // A distinct synthetic block id per (epoch, tag).
    return Checkpoint{crypto::sha256(tag + std::to_string(e.value())), e};
  }

  void vote(std::uint32_t who, Checkpoint source, Checkpoint target) {
    Attestation a;
    a.attester = ValidatorIndex{who};
    a.slot = target.epoch.start_slot();
    a.source = source;
    a.target = target;
    ffg.on_checkpoint_vote(a);
  }

  BlockTree tree;
  ValidatorRegistry registry;
  Checkpoint genesis;
  FfgTracker ffg;
};

TEST_F(FfgFixture, GenesisJustifiedAndFinalized) {
  EXPECT_EQ(ffg.justified(), genesis);
  EXPECT_EQ(ffg.finalized(), genesis);
}

TEST_F(FfgFixture, SupermajorityJustifies) {
  const Checkpoint t1 = make_checkpoint(Epoch{1}, "a");
  for (std::uint32_t i = 0; i < 7; ++i) vote(i, genesis, t1);  // 7/9 > 2/3
  const auto newly = ffg.process_epoch(Epoch{1});
  ASSERT_TRUE(newly.has_value());
  EXPECT_EQ(*newly, t1);
  EXPECT_EQ(ffg.justified(), t1);
  // Genesis (source, epoch 0) is consecutive with target epoch 1:
  // finalization of genesis happened already; finalized stays at epoch 0.
  EXPECT_EQ(ffg.finalized(), genesis);
}

TEST_F(FfgFixture, ExactTwoThirdsIsNotEnough) {
  const Checkpoint t1 = make_checkpoint(Epoch{1}, "a");
  for (std::uint32_t i = 0; i < 6; ++i) vote(i, genesis, t1);  // exactly 2/3
  EXPECT_FALSE(ffg.process_epoch(Epoch{1}).has_value());
  EXPECT_EQ(ffg.justified(), genesis);
}

TEST_F(FfgFixture, ConsecutiveJustificationFinalizes) {
  const Checkpoint t1 = make_checkpoint(Epoch{1}, "a");
  const Checkpoint t2 = make_checkpoint(Epoch{2}, "a");
  for (std::uint32_t i = 0; i < 7; ++i) vote(i, genesis, t1);
  ffg.process_epoch(Epoch{1});
  EXPECT_EQ(ffg.justified(), t1);
  EXPECT_EQ(ffg.finalized(), genesis);
  for (std::uint32_t i = 0; i < 7; ++i) vote(i, t1, t2);
  ffg.process_epoch(Epoch{2});
  EXPECT_EQ(ffg.justified(), t2);
  EXPECT_EQ(ffg.finalized(), t1);  // two consecutive justified checkpoints
}

TEST_F(FfgFixture, SkippedEpochJustifiesButDoesNotFinalize) {
  // Justification every other epoch: no finalization (Section 3.2).
  const Checkpoint t2 = make_checkpoint(Epoch{2}, "a");
  for (std::uint32_t i = 0; i < 7; ++i) vote(i, genesis, t2);
  ffg.process_epoch(Epoch{2});
  EXPECT_EQ(ffg.justified(), t2);
  EXPECT_EQ(ffg.finalized(), genesis);
  const Checkpoint t4 = make_checkpoint(Epoch{4}, "a");
  for (std::uint32_t i = 0; i < 7; ++i) vote(i, t2, t4);
  ffg.process_epoch(Epoch{4});
  EXPECT_EQ(ffg.justified(), t4);
  EXPECT_EQ(ffg.finalized(), genesis);  // still nothing consecutive
}

TEST_F(FfgFixture, UnjustifiedSourceDoesNotCount) {
  const Checkpoint fake = make_checkpoint(Epoch{1}, "fake");
  const Checkpoint t2 = make_checkpoint(Epoch{2}, "a");
  for (std::uint32_t i = 0; i < 9; ++i) vote(i, fake, t2);
  EXPECT_FALSE(ffg.process_epoch(Epoch{2}).has_value());
  EXPECT_DOUBLE_EQ(ffg.support(t2).eth(), 0.0);
}

TEST_F(FfgFixture, DuplicateVotesCountOnce) {
  const Checkpoint t1 = make_checkpoint(Epoch{1}, "a");
  for (int rep = 0; rep < 5; ++rep) vote(0, genesis, t1);
  EXPECT_DOUBLE_EQ(ffg.support(t1).eth(), 32.0);
}

TEST_F(FfgFixture, EquivocatingTargetCountsFirstOnly) {
  const Checkpoint t1a = make_checkpoint(Epoch{1}, "a");
  const Checkpoint t1b = make_checkpoint(Epoch{1}, "b");
  vote(0, genesis, t1a);
  vote(0, genesis, t1b);  // same epoch, different target: ignored
  EXPECT_DOUBLE_EQ(ffg.support(t1a).eth(), 32.0);
  EXPECT_DOUBLE_EQ(ffg.support(t1b).eth(), 0.0);
}

TEST_F(FfgFixture, TwoSupermajorityTargetsInOneEpoch) {
  // Conflicting epoch-1 targets can both be justified once the first
  // one's voters exit (as with a Byzantine third that equivocates).
  // Each attester counts for one target per epoch, so only one can
  // reach a supermajority per process_epoch call; the first justified
  // keeps `justified()`.
  const Checkpoint first = make_checkpoint(Epoch{1}, "a");
  const Checkpoint second = make_checkpoint(Epoch{1}, "b");
  for (std::uint32_t i = 0; i < 7; ++i) vote(i, genesis, first);
  vote(7, genesis, second);
  vote(8, genesis, second);
  vote(0, genesis, second);  // equivocation: not counted
  EXPECT_EQ(ffg.process_epoch(Epoch{1}), first);
  EXPECT_EQ(ffg.justified(), first);

  for (std::uint32_t i = 0; i < 7; ++i) {
    registry.eject(ValidatorIndex{i}, Epoch{0});
  }
  // 2 of 2 active validators now back `second`.
  EXPECT_EQ(ffg.process_epoch(Epoch{1}), second);
  EXPECT_EQ(ffg.justified(), first);
  // Re-processing the epoch is idempotent.
  EXPECT_FALSE(ffg.process_epoch(Epoch{1}).has_value());
  EXPECT_EQ(ffg.justified(), first);
  // `second` counts as justified: a link from it justifies epoch 2 and
  // finalizes it.
  const Checkpoint t2 = make_checkpoint(Epoch{2}, "b");
  vote(7, second, t2);
  vote(8, second, t2);
  EXPECT_EQ(ffg.process_epoch(Epoch{2}), t2);
  EXPECT_EQ(ffg.justified(), t2);
  EXPECT_EQ(ffg.finalized(), second);
}

TEST_F(FfgFixture, ExitedValidatorsDoNotSupport) {
  const Checkpoint t1 = make_checkpoint(Epoch{1}, "a");
  for (std::uint32_t i = 0; i < 7; ++i) vote(i, genesis, t1);
  for (std::uint32_t i = 0; i < 4; ++i) registry.eject(ValidatorIndex{i}, Epoch{0});
  // Only 3 of 5 remaining active validators voted: 96/160 < 2/3.
  EXPECT_FALSE(ffg.process_epoch(Epoch{1}).has_value());
}

TEST_F(FfgFixture, StakeWeightedSupermajority) {
  // One whale with 9x stake can justify with few allies.
  registry.at(ValidatorIndex{0}).balance = Gwei::from_eth(320.0);
  const Checkpoint t1 = make_checkpoint(Epoch{1}, "a");
  vote(0, genesis, t1);
  vote(1, genesis, t1);
  // Support 352 of 576 total = 61% < 2/3: not yet.
  EXPECT_FALSE(ffg.process_epoch(Epoch{1}).has_value());
  vote(2, genesis, t1);
  vote(3, genesis, t1);
  // 416/576 = 72% > 2/3.
  EXPECT_TRUE(ffg.process_epoch(Epoch{1}).has_value());
}

TEST(SafetyMonitorTest, PrefixCompatibleReportsAreFine) {
  BlockTree tree;
  const Block b1 = Block::make(tree.genesis_id(), Slot{32}, ValidatorIndex{0});
  tree.insert(b1);
  const Block b2 = Block::make(b1.id, Slot{64}, ValidatorIndex{1});
  tree.insert(b2);
  SafetyMonitor mon(tree);
  EXPECT_FALSE(mon.report(Checkpoint{b1.id, Epoch{1}}).has_value());
  EXPECT_FALSE(mon.report(Checkpoint{b2.id, Epoch{2}}).has_value());
}

TEST(SafetyMonitorTest, ConflictingFinalizationDetected) {
  BlockTree tree;
  const Block a = Block::make(tree.genesis_id(), Slot{32}, ValidatorIndex{0});
  const Block b = Block::make(tree.genesis_id(), Slot{33}, ValidatorIndex{1});
  tree.insert(a);
  tree.insert(b);
  SafetyMonitor mon(tree);
  EXPECT_FALSE(mon.report(Checkpoint{a.id, Epoch{1}}).has_value());
  const auto v = mon.report(Checkpoint{b.id, Epoch{1}});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->a.block, a.id);
  EXPECT_EQ(v->b.block, b.id);
}

TEST(SafetyMonitorTest, SameCheckpointTwiceIsFine) {
  BlockTree tree;
  const Block a = Block::make(tree.genesis_id(), Slot{32}, ValidatorIndex{0});
  tree.insert(a);
  SafetyMonitor mon(tree);
  mon.report(Checkpoint{a.id, Epoch{1}});
  EXPECT_FALSE(mon.report(Checkpoint{a.id, Epoch{1}}).has_value());
}

TEST(SafetyMonitorTest, RepeatedReportsKeepTheirVerdict) {
  // Every view reports each checkpoint it finalizes, so the same block
  // arrives many times.  A repeat report conflicts exactly when its block
  // conflicts with some reported block, including ones reported after
  // its first report, and names the first such block.
  BlockTree tree;
  const Block a = Block::make(tree.genesis_id(), Slot{32}, ValidatorIndex{0});
  const Block a2 = Block::make(a.id, Slot{64}, ValidatorIndex{1});
  const Block b = Block::make(tree.genesis_id(), Slot{33}, ValidatorIndex{2});
  const Block b2 = Block::make(b.id, Slot{65}, ValidatorIndex{3});
  for (const Block& blk : {a, a2, b, b2}) tree.insert(blk);
  SafetyMonitor mon(tree);
  const Checkpoint ca{a.id, Epoch{1}}, ca2{a2.id, Epoch{2}};
  const Checkpoint cb{b.id, Epoch{1}}, cb2{b2.id, Epoch{2}};
  EXPECT_FALSE(mon.report(ca).has_value());
  EXPECT_FALSE(mon.report(ca).has_value());
  EXPECT_FALSE(mon.report(ca2).has_value());
  EXPECT_FALSE(mon.report(ca2).has_value());
  const auto first = mon.report(cb);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->a.block, a.id);
  EXPECT_EQ(first->b.block, b.id);
  // a now conflicts with b, reported after a's first report.
  const auto again = mon.report(ca);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->a.block, b.id);
  EXPECT_EQ(again->b.block, a.id);
  ASSERT_TRUE(mon.report(cb).has_value());
  EXPECT_EQ(mon.report(cb)->a.block, a.id);
  const auto second = mon.report(cb2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->a.block, a.id);
  const auto later = mon.report(ca2);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->a.block, b.id);
  EXPECT_EQ(later->b.epoch, Epoch{2});
  // A block that conflicts with nothing stays fine however often it is
  // reported.
  BlockTree lone;
  lone.insert(a);
  SafetyMonitor quiet(lone);
  for (int k = 0; k < 3; ++k) EXPECT_FALSE(quiet.report(ca).has_value());
}

TEST(SafetyMonitorTest, ChainReportedOutOfOrderThenForked) {
  // Finalized blocks can be reported deepest first (a view that skips a
  // checkpoint reports ahead of one that does not): an ancestor
  // reported later still conflicts with nothing.  A fork off the chain
  // then conflicts, and names the first reported block it leaves out.
  BlockTree tree;
  const Block a = Block::make(tree.genesis_id(), Slot{32}, ValidatorIndex{0});
  const Block a2 = Block::make(a.id, Slot{64}, ValidatorIndex{1});
  const Block a3 = Block::make(a2.id, Slot{96}, ValidatorIndex{2});
  const Block b2 = Block::make(a.id, Slot{65}, ValidatorIndex{3});
  for (const Block& blk : {a, a2, a3, b2}) tree.insert(blk);
  SafetyMonitor mon(tree);
  EXPECT_FALSE(mon.report(Checkpoint{a3.id, Epoch{3}}).has_value());
  EXPECT_FALSE(mon.report(Checkpoint{a.id, Epoch{1}}).has_value());
  EXPECT_FALSE(mon.report(Checkpoint{a2.id, Epoch{2}}).has_value());
  const auto fork = mon.report(Checkpoint{b2.id, Epoch{2}});
  ASSERT_TRUE(fork.has_value());
  EXPECT_EQ(fork->a.block, a3.id);
  // The chain's ancestor of the fork still conflicts with nothing; the
  // chain's other blocks now conflict with the fork.
  EXPECT_FALSE(mon.report(Checkpoint{a.id, Epoch{1}}).has_value());
  const auto again = mon.report(Checkpoint{a2.id, Epoch{2}});
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->a.block, b2.id);
}

}  // namespace
}  // namespace leak::finality
