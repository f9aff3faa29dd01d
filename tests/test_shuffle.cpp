// Tests for swap-or-not shuffling and epoch duty assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/chain/shuffle.hpp"
#include "tests/oracles/duty_roster_scalar.hpp"
#include "tests/oracles/yardsticks.hpp"

namespace leak::chain {
namespace {

const crypto::Digest kSeed = crypto::sha256("shuffle-seed");

TEST(SwapOrNot, IsAPermutation) {
  for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 64ULL, 333ULL}) {
    auto perm = shuffle_list(n, kSeed);
    std::sort(perm.begin(), perm.end());
    for (std::uint64_t i = 0; i < n; ++i) EXPECT_EQ(perm[i], i) << n;
  }
}

TEST(SwapOrNot, DeterministicPerSeed) {
  EXPECT_EQ(shuffle_list(100, kSeed), shuffle_list(100, kSeed));
  EXPECT_NE(shuffle_list(100, kSeed),
            shuffle_list(100, crypto::sha256("other")));
}

TEST(SwapOrNot, ActuallyShuffles) {
  const auto perm = shuffle_list(256, kSeed);
  std::size_t fixed = 0;
  for (std::uint64_t i = 0; i < perm.size(); ++i) fixed += (perm[i] == i);
  EXPECT_LT(fixed, 10u);  // E[fixed points] ~ 1
}

TEST(SwapOrNot, BatchedListMatchesPerIndexReference) {
  // shuffle_list is the hash-batched variant; it must agree elementwise
  // with the reference compute_shuffled_index for every index.  The
  // small n make index == pivot common (the division-free flip's edge),
  // and 255-257 and 513 straddle the 256-position source blocks.
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL, 5ULL, 64ULL, 255ULL, 256ULL,
                          257ULL, 300ULL, 513ULL}) {
    const auto perm = shuffle_list(n, kSeed);
    for (std::uint64_t i = 0; i < n; ++i) {
      EXPECT_EQ(perm[i], oracle::shuffled_index(i, n, kSeed))
          << n << ":" << i;
    }
  }
}

TEST(SwapOrNot, RoundsComposeIncrementally) {
  // 0 rounds is the identity.
  EXPECT_EQ(oracle::shuffled_index(5, 100, kSeed, 0), 5u);
}

TEST(SwapOrNot, OutOfRangeThrows) {
  EXPECT_THROW(static_cast<void>(oracle::shuffled_index(5, 5, kSeed)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(oracle::shuffled_index(0, 0, kSeed)),
               std::invalid_argument);
}

class RosterFixture : public ::testing::Test {
 protected:
  RosterFixture() : registry(128) {}
  ValidatorRegistry registry;
};

TEST_F(RosterFixture, EveryValidatorAttestsExactlyOnce) {
  DutyRoster roster(registry, Epoch{3}, 42);
  std::vector<int> seen(128, 0);
  std::size_t total = 0;
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
    for (const auto v : roster.committee(pos)) {
      ++seen[v.value()];
      ++total;
    }
  }
  EXPECT_EQ(total, 128u);
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST_F(RosterFixture, CommitteesBalanced) {
  DutyRoster roster(registry, Epoch{1}, 7);
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
    EXPECT_EQ(roster.committee(pos).size(), 128u / kSlotsPerEpoch);
  }
}

TEST_F(RosterFixture, ProposersValidAndSpread) {
  DutyRoster roster(registry, Epoch{1}, 7);
  std::vector<std::uint32_t> props;
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
    const auto p = roster.proposer(pos);
    EXPECT_LT(p.value(), 128u);
    props.push_back(p.value());
  }
  // Not all the same proposer.
  std::sort(props.begin(), props.end());
  props.erase(std::unique(props.begin(), props.end()), props.end());
  EXPECT_GT(props.size(), 8u);
}

TEST_F(RosterFixture, RosterChangesAcrossEpochs) {
  DutyRoster a(registry, Epoch{1}, 7);
  DutyRoster b(registry, Epoch{2}, 7);
  bool any_diff = false;
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch && !any_diff; ++pos) {
    if (a.committee(pos) != b.committee(pos)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(RosterFixture, ExitedValidatorsExcluded) {
  for (std::uint32_t i = 0; i < 32; ++i) {
    registry.eject(ValidatorIndex{i}, Epoch{0});
  }
  DutyRoster roster(registry, Epoch{2}, 9);
  std::size_t dealt = 0;
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
    dealt += roster.committee(pos).size();
    for (const auto v : roster.committee(pos)) {
      EXPECT_GE(v.value(), 32u);
    }
    EXPECT_GE(roster.proposer(pos).value(), 32u);
  }
  EXPECT_EQ(dealt, 96u);  // every active validator, once
}

TEST_F(RosterFixture, LowBalanceProposesLessOften) {
  // Balance-weighted proposer sampling: a validator at the ejection
  // boundary (16 ETH) should propose roughly half as often as a 32 ETH
  // one.  Count over many epochs.
  ValidatorRegistry reg(64);
  for (std::uint32_t i = 0; i < 32; ++i) {
    reg.at(ValidatorIndex{i}).balance = Gwei::from_eth(16.0);
  }
  std::size_t low = 0, high = 0;
  for (std::uint64_t e = 1; e <= 120; ++e) {
    DutyRoster roster(reg, Epoch{e}, 1234);
    for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
      if (roster.proposer(pos).value() < 32) {
        ++low;
      } else {
        ++high;
      }
    }
  }
  const double ratio = static_cast<double>(low) / static_cast<double>(high);
  EXPECT_NEAR(ratio, 0.5, 0.12);
}

TEST_F(RosterFixture, EmptyActiveSetThrows) {
  ValidatorRegistry reg(2);
  reg.eject(ValidatorIndex{0}, Epoch{0});
  reg.eject(ValidatorIndex{1}, Epoch{0});
  EXPECT_THROW(DutyRoster(reg, Epoch{1}, 0), std::invalid_argument);
}

TEST(DutyRosterOracle, MatchesFrozenScalarRosterThroughRejectedDraws) {
  // Slashed-and-exited validators leave the active set from epoch 2 and
  // the rest hold 20-32 ETH, so proposer draws get rejected and the
  // roster's one-at-a-time retry path runs.  The batched roster must
  // agree with the frozen one slot for slot.
  std::uint64_t rejected = 0;
  for (std::uint32_t n : {44U, 300U}) {
    ValidatorRegistry reg(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ValidatorRecord& r = reg.at(ValidatorIndex{i});
      if (i % 7 == 3) {
        r.slashed = true;
        r.balance = Gwei::from_eth(31.0);
        reg.eject(ValidatorIndex{i}, Epoch{2});
      } else {
        r.balance = Gwei::from_eth(20.0 + static_cast<double>(i % 13));
      }
    }
    for (std::uint64_t seed : {1ULL, 42ULL, 9001ULL}) {
      for (std::uint64_t e : {0ULL, 1ULL, 2ULL, 7ULL}) {
        const DutyRoster live(reg, Epoch{e}, seed);
        const auto frozen = oracle::duty_roster_scalar(reg, Epoch{e}, seed);
        rejected += frozen.rejected_draws;
        for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
          EXPECT_EQ(live.committee(pos), frozen.committees[pos])
              << n << "/" << seed << "/" << e << "/" << pos;
          EXPECT_EQ(live.proposer(pos), frozen.proposers[pos])
              << n << "/" << seed << "/" << e << "/" << pos;
        }
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace leak::chain
