// Tests for fork-choice extensions: proposer boost, equivocation
// discounting of slashed validators, and the one-pass weighing checked
// against the per-child descent it replaced (tests/oracles/), over a
// whole tree and over a validator's partial view of a shared store
// whose votes, registry, boost and epoch change between queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/chain/forkchoice.hpp"
#include "src/penalties/slashing.hpp"
#include "src/support/random.hpp"
#include "tests/oracles/forkchoice_scalar.hpp"

namespace leak::chain {
namespace {

class BoostFixture : public ::testing::Test {
 protected:
  BoostFixture() : registry(10), fc(tree, registry) {}

  Block add(const Digest& parent, std::uint64_t slot, std::uint32_t p) {
    const Block b = Block::make(parent, Slot{slot}, ValidatorIndex{p});
    tree.insert(b);
    return b;
  }

  void boost(const Block& b, unsigned percent) {
    fc.set_proposer_boost(*tree.index_of(b.id), percent);
  }

  BlockTree tree;
  ValidatorRegistry registry;
  ForkChoice fc;
};

TEST_F(BoostFixture, BoostFlipsCloseRace) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  // 3 vs 2 votes for a.
  fc.on_attestation(ValidatorIndex{0}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{1}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{2}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{3}, b.id, Slot{3});
  fc.on_attestation(ValidatorIndex{4}, b.id, Slot{3});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), a.id);
  // A 40% boost (4 validators' worth out of 10) flips the race to b.
  boost(b, 40);
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), b.id);
  fc.clear_proposer_boost();
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), a.id);
}

TEST_F(BoostFixture, BoostAppliesToAncestors) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block a2 = add(a.id, 2, 1);
  const Block b = add(tree.genesis_id(), 3, 2);
  fc.on_attestation(ValidatorIndex{0}, b.id, Slot{3});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), b.id);
  // The boost weight counts inside every subtree containing a2, so a
  // (with no votes of its own) now outweighs b.
  boost(a2, 40);
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), a2.id);
}

TEST_F(BoostFixture, BoostForUnknownBlockIgnored) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  // The vote goes to the sibling that loses the empty tie-break, so
  // any stray boost weight on the winner would show.
  const Digest loser = std::max(a.id, b.id);
  fc.on_attestation(ValidatorIndex{0}, loser, Slot{3});
  // An index past the tree's end names no block yet.
  fc.set_proposer_boost(static_cast<std::uint32_t>(tree.size()), 40);
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), loser);
}

TEST_F(BoostFixture, BoostOutsideTheViewIgnored) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  const Digest loser = std::max(a.id, b.id);
  const Digest winner = std::min(a.id, b.id);
  // The view holds both siblings and a child of the tie-break winner
  // that it has not received.
  const Block c = add(winner, 3, 2);
  BlockView view(tree);
  view.insert(*tree.index_of(a.id));
  view.insert(*tree.index_of(b.id));
  ForkChoice in_view(view, registry);
  in_view.on_attestation(ValidatorIndex{0}, loser, Slot{3});
  in_view.set_proposer_boost(*tree.index_of(c.id), 40);
  EXPECT_EQ(in_view.head(tree.genesis_id(), Epoch{0}), loser);
  // Once received, the boosted block pulls its branch ahead.
  view.insert(*tree.index_of(c.id));
  EXPECT_EQ(in_view.head(tree.genesis_id(), Epoch{0}), c.id);
}

TEST_F(BoostFixture, VoteBeforeItsBlockCountsOnceTheBlockArrives) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = Block::make(tree.genesis_id(), Slot{2}, ValidatorIndex{1});
  // b wins the empty tie-break unless a outweighs it.
  const bool b_wins_ties = b.id < a.id;
  fc.on_attestation(ValidatorIndex{0}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{1}, b.id, Slot{3});
  fc.on_attestation(ValidatorIndex{2}, b.id, Slot{3});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), a.id);
  tree.insert(b);
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), b.id);
  // A second vote for a ties the siblings: the smaller id wins.
  fc.on_attestation(ValidatorIndex{3}, a.id, Slot{4});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), b_wins_ties ? b.id : a.id);
}

TEST_F(BoostFixture, SlashedVotesDiscounted) {
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  fc.on_attestation(ValidatorIndex{0}, a.id, Slot{3});
  fc.on_attestation(ValidatorIndex{1}, b.id, Slot{3});
  fc.on_attestation(ValidatorIndex{2}, b.id, Slot{3});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), b.id);
  // Slashing the b voters removes their weight even while they remain
  // formally in the registry (exit is delayed).
  registry.at(ValidatorIndex{1}).slashed = true;
  registry.at(ValidatorIndex{2}).slashed = true;
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), a.id);
}

TEST_F(BoostFixture, EquivocationDefenseEndToEnd) {
  // An equivocator voted both sides via two views; once slashed its
  // influence vanishes from both subtrees.
  const Block a = add(tree.genesis_id(), 1, 0);
  const Block b = add(tree.genesis_id(), 2, 1);
  // It backs the sibling that loses the empty tie-break.
  const Digest loser = std::max(a.id, b.id);
  fc.on_attestation(ValidatorIndex{5}, loser, Slot{3});
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), loser);
  registry.at(ValidatorIndex{5}).slashed = true;
  EXPECT_EQ(fc.head(tree.genesis_id(), Epoch{0}), std::min(a.id, b.id));
}

TEST_F(BoostFixture, UnknownRootIsItsOwnHeadAndWeighsNothing) {
  const Block a = add(tree.genesis_id(), 1, 0);
  fc.on_attestation(ValidatorIndex{0}, a.id, Slot{3});
  const Digest unknown = crypto::sha256("never seen");
  EXPECT_EQ(fc.head(unknown, Epoch{0}), unknown);
}

// ---- one-pass weighing vs the per-child oracle -----------------------

/// A random view: a tree of 1-4 concurrent branches forking off random
/// earlier blocks, up to 100 slots deep, with latest votes that mix
/// blocks the view lacks, exited and slashed voters, or (one view in
/// four) an exact weight tie between two siblings.
struct RandomView {
  explicit RandomView(std::uint64_t seed)
      : rng(seed), registry(8 + 2 * static_cast<std::uint32_t>(
                                        rng.uniform_index(20))),
        fc(tree, registry) {
    grow();
    vote();
    if (rng.uniform_index(2) == 0) {
      // blocks[i] is store block i; index blocks.size() names none.
      const std::size_t pick = rng.uniform_index(blocks.size() + 1);
      boosted = pick < blocks.size() ? blocks[pick] : crypto::sha256("gone");
      boosted_index = static_cast<std::uint32_t>(pick);
      boost_percent = static_cast<unsigned>(rng.uniform_index(101));
      fc.set_proposer_boost(boosted_index, boost_percent);
    }
  }

  void grow() {
    const std::size_t width = 1 + rng.uniform_index(4);
    const std::uint64_t depth = 1 + rng.uniform_index(100);
    std::vector<Digest> tips{tree.genesis_id()};
    std::uint64_t body = 0;
    auto add = [&](const Digest& parent, std::uint64_t slot) {
      const Block b = Block::make(
          parent, Slot{slot},
          ValidatorIndex{static_cast<std::uint32_t>(rng.uniform_index(8))},
          crypto::sha256("body" + std::to_string(body++)));
      tree.insert(b);
      blocks.push_back(b.id);
      return b.id;
    };
    blocks.push_back(tree.genesis_id());
    for (std::uint64_t s = 1; s <= depth; ++s) {
      const std::size_t before = blocks.size();
      if (tips.size() < width && rng.uniform_index(5) == 0) {
        tips.push_back(add(blocks[rng.uniform_index(before)], s));
      }
      for (std::size_t t = 0; t < tips.size(); ++t) {
        // Skipped slots leave gaps; a fresh fork already used slot s.
        if (tree.by_index(*tree.index_of(tips[t])).slot.value() == s) {
          continue;
        }
        if (rng.uniform_index(4) != 0) tips[t] = add(tips[t], s);
      }
    }
  }

  void vote() {
    const std::uint32_t n = registry.size();
    if (rng.uniform_index(4) == 0) {
      // Every validator backs one of two siblings (the first two
      // children of the first block that has two), alternately, with
      // equal stake: their subtrees tie exactly.
      for (std::uint32_t p = 0; p < tree.size() && !tie; ++p) {
        std::vector<Digest> kids;
        for (std::uint32_t i = p + 1; i < tree.size() && kids.size() < 2;
             ++i) {
          if (tree.parent_index(i) == p) kids.push_back(tree.by_index(i).id);
        }
        if (kids.size() == 2) tie = {kids[0], kids[1]};
      }
      if (tie) {
        for (std::uint32_t v = 0; v < n; ++v) {
          attest(v, v % 2 == 0 ? tie->first : tie->second, Slot{1});
        }
        return;
      }
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      registry.at(ValidatorIndex{v}).balance =
          Gwei::from_eth(static_cast<double>(16 + rng.uniform_index(17)));
      // Up to three votes each; only the latest by slot counts.
      const std::size_t votes = rng.uniform_index(4);
      for (std::size_t k = 0; k < votes; ++k) {
        const bool missing = rng.uniform_index(8) == 0;
        const Digest target =
            missing ? crypto::sha256("missing" + std::to_string(v))
                    : blocks[rng.uniform_index(blocks.size())];
        attest(v, target, Slot{rng.uniform_index(200)});
      }
      const std::size_t fate = rng.uniform_index(10);
      if (fate == 0) {
        registry.eject(ValidatorIndex{v}, Epoch{rng.uniform_index(4)});
      }
      if (fate == 1) registry.at(ValidatorIndex{v}).slashed = true;
    }
  }

  /// Vote through the fork choice, and keep the latest vote per
  /// validator (by slot; a tie keeps the first) for the oracle.
  void attest(std::uint32_t v, const Digest& block, Slot slot) {
    fc.on_attestation(ValidatorIndex{v}, block, slot);
    const auto [it, fresh] = latest.try_emplace(v, slot, block);
    if (!fresh && it->second.first < slot) it->second = {slot, block};
  }

  [[nodiscard]] oracle::ForkChoiceInputs inputs() const {
    oracle::ForkChoiceInputs in{tree, registry, {}, boosted, boost_percent};
    for (const auto& [v, vote] : latest) {
      in.votes.emplace_back(ValidatorIndex{v}, vote.second);
    }
    return in;
  }

  Rng rng;
  BlockTree tree;
  ValidatorRegistry registry;
  ForkChoice fc;
  std::vector<Digest> blocks;
  std::map<std::uint32_t, std::pair<Slot, Digest>> latest;
  std::optional<std::pair<Digest, Digest>> tie;
  std::optional<Digest> boosted;
  std::uint32_t boosted_index = 0;
  unsigned boost_percent = 0;
};

/// A validator's view of `store`: a random parent-closed subset of its
/// blocks, received in shuffled order (a block whose parent has not
/// arrived waits, as in the slot simulator).  It starts from the
/// store's latest votes and boost.  Between arrivals its fork choice
/// takes fresh votes, the shared registry slashes and ejects
/// validators, the boost moves or clears and the epoch changes, and
/// after each step its head from genesis and from a random held root
/// must match the per-child oracle on a standalone tree holding just
/// the blocks received so far.  At the end every block is tried as the
/// root.
void check_view_of_store(RandomView& store, Epoch e) {
  const BlockTree& tree = store.tree;
  Rng& rng = store.rng;
  std::vector<std::uint8_t> keep(tree.size(), 0);
  keep[0] = 1;
  // Each block stays with probability (odds - 1) / odds if its parent
  // did; odds 1 leaves genesis alone.
  const std::size_t odds = 1 + rng.uniform_index(4);
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    keep[i] = static_cast<std::uint8_t>(keep[tree.parent_index(i)] != 0 &&
                                        rng.uniform_index(odds) != 0);
  }
  std::vector<std::uint32_t> arrivals;
  for (std::uint32_t i = 1; i < tree.size(); ++i) {
    if (keep[i] != 0) arrivals.push_back(i);
  }
  for (std::size_t i = arrivals.size(); i > 1; --i) {
    std::swap(arrivals[i - 1], arrivals[rng.uniform_index(i)]);
  }
  BlockView view(tree);
  ForkChoice fc(view, store.registry);
  const oracle::ForkChoiceInputs in = store.inputs();
  // The latest vote per validator, as the oracle reads it.
  std::map<std::uint32_t, Digest> votes;
  for (const auto& [v, d] : in.votes) {
    fc.on_attestation(v, d, Slot{1});
    votes[v.value()] = d;
  }
  std::optional<std::uint32_t> boosted;
  unsigned boost_percent = store.boost_percent;
  if (store.boosted) {
    boosted = store.boosted_index;
    fc.set_proposer_boost(store.boosted_index, boost_percent);
  }
  std::uint64_t next_slot = 2;

  // The oracle's inputs over the blocks received so far.
  const auto expect_heads = [&](const std::vector<Digest>& roots, Epoch at) {
    BlockTree subset;
    for (std::uint32_t i = 1; i < tree.size(); ++i) {
      if (view.contains(i)) subset.insert(tree.by_index(i));
    }
    oracle::ForkChoiceInputs sub{subset, store.registry, {}, std::nullopt,
                                 boost_percent};
    for (const auto& [v, d] : votes) {
      sub.votes.emplace_back(ValidatorIndex{v}, d);
    }
    if (boosted) {
      sub.boosted_block = *boosted < tree.size() ? tree.by_index(*boosted).id
                                                 : crypto::sha256("gone");
    }
    for (const Digest& root : roots) {
      ASSERT_EQ(fc.head(root, at),
                oracle::forkchoice_head_scalar(sub, root, at));
    }
  };
  // One random change between arrivals, then a query.
  const auto step = [&]() {
    const std::uint32_t n = store.registry.size();
    const auto who = static_cast<std::uint32_t>(rng.uniform_index(n));
    switch (rng.uniform_index(6)) {
      case 0: {  // a fresh vote for any store block, held or not
        const Digest d = store.blocks[rng.uniform_index(store.blocks.size())];
        fc.on_attestation(ValidatorIndex{who}, d, Slot{next_slot++});
        votes[who] = d;
        break;
      }
      case 1:
        penalties::apply_slashing(store.registry, ValidatorIndex{who},
                                  Epoch{rng.uniform_index(4)},
                                  penalties::SpecConfig::paper());
        break;
      case 2:
        store.registry.eject(ValidatorIndex{who}, Epoch{rng.uniform_index(4)});
        break;
      case 3:
        boosted = static_cast<std::uint32_t>(
            rng.uniform_index(store.blocks.size() + 1));
        boost_percent = static_cast<unsigned>(rng.uniform_index(101));
        fc.set_proposer_boost(*boosted, boost_percent);
        break;
      case 4:
        boosted.reset();
        boost_percent = 0;
        fc.clear_proposer_boost();
        break;
      default:
        e = Epoch{rng.uniform_index(5)};
        break;
    }
    std::vector<Digest> held;
    for (const std::uint32_t i : view.arrivals()) {
      held.push_back(tree.by_index(i).id);
    }
    expect_heads({tree.genesis_id(), held[rng.uniform_index(held.size())]}, e);
  };

  std::vector<std::uint32_t> waiting;
  for (const std::uint32_t i : arrivals) {
    waiting.push_back(i);
    // Admit every waiting block whose parent is in, until none is.
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t k = 0; k < waiting.size(); ++k) {
        if (!view.contains(tree.parent_index(waiting[k]))) continue;
        ASSERT_TRUE(view.insert(waiting[k]));
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(k));
        progress = true;
        break;
      }
    }
    step();
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(waiting.empty());
  ASSERT_EQ(view.size(), arrivals.size() + 1);

  std::vector<Digest> held;
  for (std::uint32_t i = 0; i < tree.size(); ++i) {
    const Digest& d = tree.by_index(i).id;
    ASSERT_EQ(view.contains(i), keep[i] != 0);
    if (keep[i] == 0) {
      // A block the view lacks is its own head.
      ASSERT_EQ(fc.head(d, e), d);
      continue;
    }
    held.push_back(d);
  }
  expect_heads(held, e);
}

TEST(ForkChoiceOracle, OnePassMatchesPerChildDescent) {
  std::size_t ties = 0;
  std::size_t boosts = 0;
  for (std::uint64_t seed = 1; seed <= 96; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomView view(seed);
    const oracle::ForkChoiceInputs in = view.inputs();
    const Epoch e{2};
    // The head from every block, then from genesis and a few random
    // justified roots.
    for (const Digest& d : view.blocks) {
      ASSERT_EQ(view.fc.head(d, e), oracle::forkchoice_head_scalar(in, d, e));
    }
    std::vector<Digest> roots{view.tree.genesis_id()};
    for (int k = 0; k < 4; ++k) {
      const std::size_t pick = view.rng.uniform_index(view.blocks.size());
      roots.push_back(view.blocks[pick]);
    }
    for (const Digest& root : roots) {
      ASSERT_EQ(view.fc.head(root, e),
                oracle::forkchoice_head_scalar(in, root, e));
    }
    if (view.tie && !view.boosted) {
      // The tied pair decides the head: the smaller block id wins.
      ++ties;
      ASSERT_EQ(
          oracle::forkchoice_subtree_weight_scalar(in, view.tie->first, e),
          oracle::forkchoice_subtree_weight_scalar(in, view.tie->second, e));
      const Digest winner = std::min(view.tie->first, view.tie->second);
      EXPECT_TRUE(view.tree.is_ancestor(
          winner, view.fc.head(view.tree.genesis_id(), e)));
    }
    if (view.boosted) ++boosts;
    // The same store seen through a partial view.
    check_view_of_store(view, e);
  }
  // The seeds exercise both the tie and the boost paths.
  EXPECT_GT(ties, 0u);
  EXPECT_GT(boosts, 0u);
}

}  // namespace
}  // namespace leak::chain
