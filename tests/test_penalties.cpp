// Tests for the inactivity-leak engine and slashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/chain/registry.hpp"
#include "src/penalties/inactivity.hpp"
#include "src/penalties/slashing.hpp"
#include "src/support/random.hpp"

namespace leak::penalties {
namespace {

using chain::ValidatorRegistry;

TEST(LeakTrigger, StartsAfterFourEpochsWithoutFinality) {
  ValidatorRegistry reg(1);
  InactivityTracker tracker(reg, SpecConfig::paper());
  EXPECT_FALSE(tracker.is_leaking(Epoch{4}, Epoch{0}));
  EXPECT_TRUE(tracker.is_leaking(Epoch{5}, Epoch{0}));
  EXPECT_FALSE(tracker.is_leaking(Epoch{10}, Epoch{6}));
  EXPECT_THROW(static_cast<void>(tracker.is_leaking(Epoch{1}, Epoch{2})),
               std::invalid_argument);
}

TEST(Scores, ActiveDecrementsInactiveBumps) {
  ValidatorRegistry reg(2);
  InactivityTracker tracker(reg, SpecConfig::paper());
  // During a leak: active -1, inactive +4 (Eq 1).
  reg.at(ValidatorIndex{0}).inactivity_score = 10;
  reg.at(ValidatorIndex{1}).inactivity_score = 10;
  tracker.process_epoch(Epoch{10}, Epoch{0}, {true, false});
  EXPECT_EQ(reg.at(ValidatorIndex{0}).inactivity_score, 9u);
  EXPECT_EQ(reg.at(ValidatorIndex{1}).inactivity_score, 14u);
}

TEST(Scores, FlooredAtZero) {
  ValidatorRegistry reg(1);
  InactivityTracker tracker(reg, SpecConfig::paper());
  tracker.process_epoch(Epoch{10}, Epoch{0}, {true});
  EXPECT_EQ(reg.at(ValidatorIndex{0}).inactivity_score, 0u);
}

TEST(Scores, RecoveryOutsideLeak) {
  ValidatorRegistry reg(1);
  InactivityTracker tracker(reg, SpecConfig::paper());
  reg.at(ValidatorIndex{0}).inactivity_score = 20;
  // Not leaking: inactive +4 then recovery -16 => net -12.
  const auto rep = tracker.process_epoch(Epoch{3}, Epoch{0}, {false});
  EXPECT_FALSE(rep.leaking);
  EXPECT_EQ(reg.at(ValidatorIndex{0}).inactivity_score, 8u);
  // And no penalties outside the leak.
  EXPECT_EQ(rep.total_penalty.value(), 0u);
  EXPECT_DOUBLE_EQ(reg.at(ValidatorIndex{0}).balance.eth(), 32.0);
}

TEST(Penalty, MatchesEq2) {
  ValidatorRegistry reg(1);
  InactivityTracker tracker(reg, SpecConfig::paper());
  reg.at(ValidatorIndex{0}).inactivity_score = 100;
  const auto before = reg.at(ValidatorIndex{0}).balance.value();
  tracker.process_epoch(Epoch{10}, Epoch{0}, {false});
  const auto after = reg.at(ValidatorIndex{0}).balance.value();
  // Eq 2: penalty = I(t-1) * s(t-1) / 2^26.
  const auto expect = static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(before) * 100) / (1ULL << 26));
  EXPECT_EQ(before - after, expect);
}

TEST(Penalty, ActiveValidatorNeverPenalized) {
  ValidatorRegistry reg(1);
  InactivityTracker tracker(reg, SpecConfig::paper());
  for (std::uint64_t t = 5; t < 500; ++t) {
    tracker.process_epoch(Epoch{t}, Epoch{0}, {true});
  }
  EXPECT_DOUBLE_EQ(reg.at(ValidatorIndex{0}).balance.eth(), 32.0);
}

TEST(Penalty, InactiveStakeTracksClosedForm) {
  // Discrete protocol arithmetic vs s0 e^{-t^2/2^25} within 0.2%.
  ValidatorRegistry reg(1);
  SpecConfig spec = SpecConfig::paper();
  spec.ejection_balance = Gwei{0};  // disable ejection for this check
  InactivityTracker tracker(reg, spec);
  const std::uint64_t horizon = 2000;
  for (std::uint64_t t = 1; t <= horizon; ++t) {
    tracker.process_epoch(Epoch{t}, Epoch{0}, {false});
  }
  const double expect =
      32.0 * std::exp(-static_cast<double>(horizon * horizon) /
                      std::pow(2.0, 25));
  EXPECT_NEAR(reg.at(ValidatorIndex{0}).balance.eth() / expect, 1.0, 2e-3);
}

TEST(Penalty, EjectionAtThreshold) {
  ValidatorRegistry reg(1);
  InactivityTracker tracker(reg, SpecConfig::paper());
  std::int64_t ejected_at = -1;
  for (std::uint64_t t = 1; t <= 6000 && ejected_at < 0; ++t) {
    const auto rep = tracker.process_epoch(Epoch{t}, Epoch{0}, {false});
    if (!rep.ejected.empty()) ejected_at = static_cast<std::int64_t>(t);
  }
  // Continuous model with threshold 16.75 predicts epoch 4661.
  ASSERT_GT(ejected_at, 0);
  EXPECT_NEAR(static_cast<double>(ejected_at), 4661.0, 8.0);
}

TEST(Penalty, ExitedValidatorsUntouched) {
  ValidatorRegistry reg(2);
  InactivityTracker tracker(reg, SpecConfig::paper());
  reg.eject(ValidatorIndex{0}, Epoch{1});
  reg.at(ValidatorIndex{0}).inactivity_score = 50;
  tracker.process_epoch(Epoch{10}, Epoch{0}, {false, false});
  EXPECT_DOUBLE_EQ(reg.at(ValidatorIndex{0}).balance.eth(), 32.0);
  EXPECT_EQ(reg.at(ValidatorIndex{0}).inactivity_score, 50u);
}

TEST(Penalty, ActivityVectorSizeChecked) {
  ValidatorRegistry reg(2);
  InactivityTracker tracker(reg, SpecConfig::paper());
  EXPECT_THROW(tracker.process_epoch(Epoch{10}, Epoch{0}, {true}),
               std::invalid_argument);
}

TEST(Penalty, SemiActiveSlowerThanInactive) {
  ValidatorRegistry reg(2);
  SpecConfig spec = SpecConfig::paper();
  spec.ejection_balance = Gwei{0};
  InactivityTracker tracker(reg, spec);
  for (std::uint64_t t = 1; t <= 3000; ++t) {
    tracker.process_epoch(Epoch{t}, Epoch{0}, {t % 2 == 0, false});
  }
  const double semi = reg.at(ValidatorIndex{0}).balance.eth();
  const double inact = reg.at(ValidatorIndex{1}).balance.eth();
  EXPECT_GT(semi, inact);
  EXPECT_LT(semi, 32.0);
  // Closed form for semi-active: 32 e^{-3 t^2 / 2^28}.
  const double expect = 32.0 * std::exp(-3.0 * 3000.0 * 3000.0 /
                                        std::pow(2.0, 28));
  EXPECT_NEAR(semi / expect, 1.0, 5e-3);
}

/// A detector over a test-owned store: each observed attestation is
/// appended, then observed by its id.
struct StoreDetector {
  std::optional<SlashingProof> observe(const chain::Attestation& a) {
    store.push_back(a);
    return det.observe(store.size() - 1);
  }

  std::vector<chain::Attestation> store;
  SlashingDetector det{[this](std::uint64_t id) -> const chain::Attestation& {
    return store[id];
  }};
};

TEST(Slashing, DetectorFindsDoubleVote) {
  StoreDetector det;
  chain::Attestation a, b;
  a.attester = b.attester = ValidatorIndex{3};
  a.target.epoch = b.target.epoch = Epoch{7};
  a.target.block = crypto::sha256("A");
  b.target.block = crypto::sha256("B");
  EXPECT_FALSE(det.observe(a).has_value());
  const auto proof = det.observe(b);
  ASSERT_TRUE(proof.has_value());
  EXPECT_EQ(proof->offender(), ValidatorIndex{3});
}

TEST(Slashing, DetectorIgnoresHonestHistory) {
  StoreDetector det;
  for (std::uint64_t e = 1; e <= 50; ++e) {
    chain::Attestation a;
    a.attester = ValidatorIndex{1};
    a.source.epoch = Epoch{e - 1};
    a.target.epoch = Epoch{e};
    a.target.block = crypto::sha256("chain" + std::to_string(e));
    EXPECT_FALSE(det.observe(a).has_value()) << e;
  }
  // Every target epoch keeps its record: a rival vote for the first
  // target is still caught.
  chain::Attestation rival;
  rival.attester = ValidatorIndex{1};
  rival.source.epoch = Epoch{0};
  rival.target.epoch = Epoch{1};
  rival.target.block = crypto::sha256("fork1");
  EXPECT_TRUE(det.observe(rival).has_value());
}

TEST(Slashing, DetectorFindsSurround) {
  StoreDetector det;
  chain::Attestation inner, outer;
  inner.attester = outer.attester = ValidatorIndex{5};
  inner.source.epoch = Epoch{3};
  inner.target.epoch = Epoch{4};
  outer.source.epoch = Epoch{2};
  outer.target.epoch = Epoch{6};
  det.observe(inner);
  EXPECT_TRUE(det.observe(outer).has_value());
}

/// The detector as it was before it kept ids: it copies every
/// attestation it is shown and compares each new one with all of them.
/// Kept verbatim as the reference.
class CopyingDetector {
 public:
  std::optional<SlashingProof> observe(const chain::Attestation& att) {
    auto& stored = by_attester_[att.attester];
    for (const chain::Attestation& prev : stored) {
      if (chain::is_slashable_pair(prev, att)) {
        // Copy before push_back: growing the vector invalidates `prev`.
        SlashingProof proof{prev, att};
        stored.push_back(att);
        return proof;
      }
    }
    stored.push_back(att);
    return std::nullopt;
  }

 private:
  std::map<ValidatorIndex, std::vector<chain::Attestation>> by_attester_;
};

bool same_attestation(const chain::Attestation& a,
                      const chain::Attestation& b) {
  return a.attester == b.attester && a.slot == b.slot && a.head == b.head &&
         a.source == b.source && a.target == b.target;
}

/// Which way a proof's pair surrounds: 1 when the earlier vote
/// surrounds the new one, -1 when the new one surrounds it, 0 for a
/// double vote.
int surround_direction(const SlashingProof& p) {
  const auto& old = p.first;
  const auto& now = p.second;
  if (old.source.epoch < now.source.epoch &&
      now.target.epoch < old.target.epoch) {
    return 1;
  }
  if (now.source.epoch < old.source.epoch &&
      old.target.epoch < now.target.epoch) {
    return -1;
  }
  return 0;
}

// Seeded streams of honest chain votes, double votes, surround votes
// and repeated deliveries of already-seen attestations, with targets
// up to epoch 16 and, in a second set, up to epoch 256.  The detector
// keeps no history, so the proof may name another earlier vote than
// the copying detector's earliest one; what must not change is whether
// an observation is caught, and whose offense it is.  So at every step
// both detectors agree on a proof's presence and offender, the proof's
// second attestation is the one observed, and its first is an
// attestation observed earlier that forms a slashable pair with it.
TEST(Slashing, IdDetectorMatchesCopyingDetector) {
  constexpr std::uint32_t kAttesters = 12;
  std::size_t proofs = 0;
  std::size_t old_surrounds_new = 0;
  std::size_t new_surrounds_old = 0;
  std::size_t double_votes = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint64_t max_target = seed <= 24 ? 16 : 256;
    Rng rng(seed);
    std::vector<chain::Attestation> store;
    SlashingDetector ids([&store](std::uint64_t id)
                             -> const chain::Attestation& {
      return store[id];
    });
    CopyingDetector copies;
    std::vector<std::uint64_t> observed;
    std::vector<ValidatorIndex> offenders_ids;
    std::vector<ValidatorIndex> offenders_copies;
    for (std::size_t k = 0; k < 400; ++k) {
      std::uint64_t id = store.size();
      const std::size_t kind = rng.uniform_index(8);
      if (kind == 0 && !store.empty()) {
        id = rng.uniform_index(store.size());  // a repeated delivery
      } else {
        chain::Attestation a;
        a.attester = ValidatorIndex{
            static_cast<std::uint32_t>(rng.uniform_index(kAttesters))};
        const std::uint64_t target = 1 + rng.uniform_index(max_target);
        // Mostly honest links (source one epoch back); kind 1 is a
        // long link that may surround, kind 2 a rival same-epoch block.
        const std::uint64_t span =
            kind == 1 ? 1 + rng.uniform_index(target) : 1;
        a.source.epoch = Epoch{target - span};
        a.target.epoch = Epoch{target};
        a.target.block = crypto::sha256(
            "t" + std::to_string(target) +
            (kind == 2 ? "b" + std::to_string(rng.uniform_index(3)) : ""));
        a.slot = Slot{target * kSlotsPerEpoch};
        store.push_back(a);
      }
      const auto by_id = ids.observe(id);
      const auto by_copy = copies.observe(store[id]);
      ASSERT_EQ(by_id.has_value(), by_copy.has_value()) << "step " << k;
      if (by_id) {
        ++proofs;
        ASSERT_EQ(by_id->offender(), by_copy->offender()) << "step " << k;
        ASSERT_TRUE(same_attestation(by_id->second, store[id]));
        ASSERT_TRUE(chain::is_slashable_pair(by_id->first, by_id->second));
        ASSERT_TRUE(std::any_of(
            observed.begin(), observed.end(), [&](std::uint64_t prev) {
              return same_attestation(store[prev], by_id->first);
            }))
            << "step " << k;
        switch (surround_direction(*by_id)) {
          case 1: ++old_surrounds_new; break;
          case -1: ++new_surrounds_old; break;
          default: ++double_votes; break;
        }
        offenders_ids.push_back(by_id->offender());
        offenders_copies.push_back(by_copy->offender());
      }
      observed.push_back(id);
    }
    EXPECT_EQ(offenders_ids, offenders_copies);
  }
  EXPECT_GT(proofs, 0u);
  // The streams exercise double votes and surrounds both ways.
  EXPECT_GT(double_votes, 0u);
  EXPECT_GT(old_surrounds_new, 0u);
  EXPECT_GT(new_surrounds_old, 0u);
}

TEST(Slashing, ApplyBurnsAndEjects) {
  ValidatorRegistry reg(2);
  const Gwei burned =
      apply_slashing(reg, ValidatorIndex{0}, Epoch{4}, SpecConfig::paper());
  EXPECT_DOUBLE_EQ(burned.eth(), 1.0);  // 32/32
  EXPECT_DOUBLE_EQ(reg.at(ValidatorIndex{0}).balance.eth(), 31.0);
  EXPECT_TRUE(reg.at(ValidatorIndex{0}).slashed);
  EXPECT_FALSE(reg.is_active(ValidatorIndex{0}, Epoch{4}));
}

TEST(Slashing, Idempotent) {
  ValidatorRegistry reg(1);
  apply_slashing(reg, ValidatorIndex{0}, Epoch{4}, SpecConfig::paper());
  const Gwei again =
      apply_slashing(reg, ValidatorIndex{0}, Epoch{5}, SpecConfig::paper());
  EXPECT_EQ(again.value(), 0u);
  EXPECT_DOUBLE_EQ(reg.at(ValidatorIndex{0}).balance.eth(), 31.0);
}

// Parameterized sweep: the discrete inactive trajectory matches the
// closed form across quotients (ablation configs).
class QuotientSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuotientSweep, DiscreteMatchesClosedForm) {
  const std::uint64_t quotient = GetParam();
  ValidatorRegistry reg(1);
  SpecConfig spec = SpecConfig::paper();
  spec.inactivity_penalty_quotient = quotient;
  spec.ejection_balance = Gwei{0};
  InactivityTracker tracker(reg, spec);
  const std::uint64_t horizon = 800;
  for (std::uint64_t t = 1; t <= horizon; ++t) {
    tracker.process_epoch(Epoch{t}, Epoch{0}, {false});
  }
  const double expect =
      32.0 * std::exp(-2.0 * static_cast<double>(horizon * horizon) /
                      static_cast<double>(quotient));
  EXPECT_NEAR(reg.at(ValidatorIndex{0}).balance.eth() / expect, 1.0, 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Quotients, QuotientSweep,
                         ::testing::Values(1ULL << 24, 3ULL << 24,
                                           1ULL << 26));

}  // namespace
}  // namespace leak::penalties
