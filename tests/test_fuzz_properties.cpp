// Randomized property tests: structural invariants under arbitrary
// (seeded, reproducible) operation sequences across the substrate
// modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/chain/blocktree.hpp"
#include "src/finality/ffg.hpp"
#include "src/net/event_queue.hpp"
#include "src/net/network.hpp"
#include "src/support/random.hpp"
#include "src/support/stats.hpp"
#include "src/bouncing/walk.hpp"

namespace leak {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, BlockTreeInvariants) {
  Rng rng(GetParam());
  chain::BlockTree tree;
  std::vector<chain::Digest> known{tree.genesis_id()};
  std::uint64_t next_slot = 1;
  for (int i = 0; i < 300; ++i) {
    const auto parent = known[rng.uniform_index(known.size())];
    const auto b = chain::Block::make(
        parent, Slot{next_slot++},
        ValidatorIndex{static_cast<std::uint32_t>(rng.uniform_index(16))});
    tree.insert(b);
    known.push_back(b.id);
  }
  EXPECT_EQ(tree.size(), known.size());
  // Every known block's parent chain ends at genesis; every element of
  // the chain is an ancestor of the block, with a lower index and a
  // lower slot than its child.
  for (int i = 0; i < 20; ++i) {
    const auto& id = known[rng.uniform_index(known.size())];
    const auto index = tree.index_of(id);
    ASSERT_TRUE(index.has_value());
    for (std::uint32_t k = *index; k != 0;) {
      const std::uint32_t parent = tree.parent_index(k);
      EXPECT_LT(parent, k);
      EXPECT_LT(tree.by_index(parent).slot, tree.by_index(k).slot);
      EXPECT_EQ(tree.by_index(k).parent, tree.by_index(parent).id);
      EXPECT_TRUE(tree.is_ancestor(tree.by_index(parent).id, id));
      k = parent;
    }
  }
}

TEST_P(FuzzSeeds, FfgMonotonicityUnderRandomVotes) {
  Rng rng(GetParam());
  chain::ValidatorRegistry registry(32);
  chain::BlockTree tree;
  const chain::Checkpoint genesis{tree.genesis_id(), Epoch{0}};
  finality::FfgTracker ffg(registry, genesis);

  std::uint64_t prev_finalized = 0;
  std::uint64_t prev_justified = 0;
  // Random vote streams: random subsets vote for random targets with
  // random sources, across 40 epochs.
  std::vector<chain::Checkpoint> checkpoints{genesis};
  for (std::uint64_t e = 1; e <= 40; ++e) {
    const chain::Checkpoint target{
        crypto::sha256("cp" + std::to_string(e)), Epoch{e}};
    checkpoints.push_back(target);
    const std::size_t voters = rng.uniform_index(33);
    for (std::size_t v = 0; v < voters; ++v) {
      chain::Attestation a;
      a.attester = ValidatorIndex{static_cast<std::uint32_t>(v)};
      a.slot = Epoch{e}.start_slot();
      a.source = checkpoints[rng.uniform_index(checkpoints.size())];
      a.target = target;
      ffg.on_checkpoint_vote(a);
    }
    ffg.process_epoch(Epoch{e});
    // Invariants: neither finalized nor justified regresses, and
    // finalized <= justified.
    EXPECT_GE(ffg.finalized().epoch.value(), prev_finalized);
    prev_finalized = ffg.finalized().epoch.value();
    EXPECT_GE(ffg.justified().epoch.value(), prev_justified);
    prev_justified = ffg.justified().epoch.value();
    EXPECT_LE(ffg.finalized().epoch, ffg.justified().epoch);
    // Support can never exceed the total stake.
    EXPECT_LE(ffg.support(target).value(),
              registry.total_active_balance(Epoch{e}).value());
  }
}

TEST_P(FuzzSeeds, EventQueueExecutionOrder) {
  Rng rng(GetParam());
  net::EventQueue q;
  std::vector<double> executed_at;
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    q.schedule_at(t, [&executed_at, &q] {
      executed_at.push_back(q.now());
    });
  }
  q.run_until(100.0);
  ASSERT_EQ(executed_at.size(), 200u);
  EXPECT_TRUE(std::is_sorted(executed_at.begin(), executed_at.end()));
}

TEST_P(FuzzSeeds, NetworkDeliversEverythingByGstPlusDelta) {
  Rng rng(GetParam());
  net::EventQueue q;
  net::NetworkConfig cfg;
  cfg.num_nodes = 12;
  cfg.gst = 50.0;
  cfg.delta = 1.0;
  cfg.seed = GetParam();
  net::Network net(q, cfg);
  for (std::uint32_t i = 0; i < 12; ++i) {
    net.set_region(ValidatorIndex{i},
                   rng.bernoulli(0.5) ? net::Region::kOne
                                      : net::Region::kTwo);
  }
  struct Counter final : net::Receiver {
    const net::EventQueue* q = nullptr;
    std::size_t delivered = 0;
    double last_time = 0.0;
    void on_deliver(ValidatorIndex, const net::Packet&) override {
      ++delivered;
      last_time = std::max(last_time, q->now());
    }
  } counter;
  counter.q = &q;
  q.set_receiver(&counter);
  std::size_t sent = 0;
  for (int i = 0; i < 30; ++i) {
    const auto from =
        ValidatorIndex{static_cast<std::uint32_t>(rng.uniform_index(12))};
    net.broadcast(from, static_cast<std::uint64_t>(i));
    ++sent;
  }
  q.run_until(100.0);
  EXPECT_EQ(counter.delivered, sent * 12);  // best-effort: nobody starves
  EXPECT_LE(counter.last_time, cfg.gst + cfg.delta);  // all in by GST + delta
}

TEST_P(FuzzSeeds, ScoreWalkPmfMatchesMonteCarlo) {
  Rng rng(GetParam());
  const double p0 = 0.2 + 0.6 * rng.uniform();
  const std::size_t epochs = 60;
  const auto pmf = bouncing::exact_score_pmf(p0, epochs, true);
  // Monte Carlo of the same floored walk.
  RunningStats mc;
  for (int path = 0; path < 20000; ++path) {
    long long score = 0;
    for (std::size_t t = 0; t < epochs; ++t) {
      if (rng.bernoulli(p0)) {
        score = std::max(score - 1, 0LL);
      } else {
        score += 4;
      }
    }
    mc.add(static_cast<double>(score));
  }
  EXPECT_NEAR(mc.mean(), pmf.mean(), 4.0 * mc.stddev() / std::sqrt(20000.0))
      << "p0=" << p0;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace leak
