// Contract of the ordered reduction tree (TrialRunner::run_reduce):
// partials fold in ascending block order no matter which worker
// finishes first, at most one unfolded partial exists per worker, and
// the summary modes built on it (keep_* = false) are bit-identical to
// the full modes for all three Monte Carlo drivers that have one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/runner/trial_runner.hpp"
#include "src/support/env.hpp"
#include "tests/oracles/scalar_oracles.hpp"

namespace leak {
namespace {

// --- the reduction tree itself -----------------------------------------

// The merge order is a function of (n_trials, block) alone.  Blocks
// early in index order are made the slowest, so with 4 workers the
// completion order is roughly the reverse of the index order — the
// fold order must stay ascending anyway.
TEST(RunReduce, FoldOrderIsAscendingRegardlessOfCompletionOrder) {
  const runner::TrialRunner pool(4);
  constexpr std::size_t kTrials = 48;
  constexpr std::size_t kBlock = 4;
  struct Acc {
    std::vector<std::size_t>* begins;
    long long total = 0;
    void fold(std::size_t begin, std::size_t, long long partial) {
      begins->push_back(begin);
      total += partial;
    }
  };
  std::vector<std::size_t> begins;
  const auto acc = pool.run_reduce(
      kTrials, kBlock, Acc{&begins}, [&](std::size_t begin, std::size_t end) {
        // Earlier blocks sleep longer, inverting the completion order.
        std::this_thread::sleep_for(
            std::chrono::milliseconds((kTrials - begin) / kBlock));
        long long sum = 0;
        for (std::size_t i = begin; i < end; ++i) {
          sum += static_cast<long long>(i);
        }
        return sum;
      });
  ASSERT_EQ(begins.size(), kTrials / kBlock);
  for (std::size_t b = 0; b < begins.size(); ++b) {
    EXPECT_EQ(begins[b], b * kBlock);
  }
  EXPECT_EQ(acc.total,
            static_cast<long long>(kTrials * (kTrials - 1) / 2));
}

// A worker holds at most one unfolded partial: with W workers no more
// than W sim results may exist before their fold turn, so in-flight
// memory is bounded by O(W x sizeof(partial)) however many blocks the
// run has.
TEST(RunReduce, InFlightPartialsBoundedByWorkerCount) {
  constexpr unsigned kWorkers = 4;
  const runner::TrialRunner pool(kWorkers);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  struct Acc {
    std::atomic<int>* in_flight;
    int folded = 0;
    void fold(std::size_t, std::size_t, int) {
      in_flight->fetch_sub(1);
      ++folded;
    }
  };
  const auto acc = pool.run_reduce(
      256, 2, Acc{&in_flight}, [&](std::size_t, std::size_t) {
        const int now = in_flight.fetch_add(1) + 1;
        int seen = max_in_flight.load();
        while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        return 0;
      });
  EXPECT_EQ(acc.folded, 128);
  EXPECT_LE(max_in_flight.load(), static_cast<int>(kWorkers));
}

// Serial path: one worker degenerates to a strict left fold.
TEST(RunReduce, SerialFoldMatchesLoop) {
  const runner::TrialRunner pool(1);
  struct Acc {
    std::vector<std::size_t> begins;
    void fold(std::size_t begin, std::size_t, std::size_t partial) {
      EXPECT_EQ(begin, partial);
      begins.push_back(begin);
    }
  };
  const auto acc =
      pool.run_reduce(10, 3, Acc{},
                      [](std::size_t begin, std::size_t) { return begin; });
  EXPECT_EQ(acc.begins, (std::vector<std::size_t>{0, 3, 6, 9}));
}

// --- summary-vs-full bit-identity, one test per driver -----------------
//
// Summary mode streams per-trial scalars through the same accumulator
// code full mode uses, in the same trial order, so every aggregate is
// EXPECT_EQ-exact — not approximately equal — at every (block,
// threads) combination.

constexpr unsigned kThreadGrid[] = {1, 4};
constexpr std::size_t kBlockGrid[] = {1, 16};

TEST(SummaryBitIdentity, BouncingMc) {
  bouncing::McConfig cfg;
  cfg.paths = env::scaled_count(200);
  cfg.epochs = 600;
  cfg.seed = 17;
  const std::vector<std::size_t> snaps{300, 600};
  const auto full = bouncing::run_bouncing_mc(cfg, snaps);
  for (const std::size_t block : kBlockGrid) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      cfg.keep_paths = false;
      const auto summary = bouncing::run_bouncing_mc(cfg, snaps);
      cfg.keep_paths = true;
      EXPECT_TRUE(summary.stakes.empty());
      EXPECT_EQ(summary.ejected_fraction, full.ejected_fraction);
      EXPECT_EQ(summary.capped_fraction, full.capped_fraction);
      EXPECT_EQ(summary.prob_beta_exceeds, full.prob_beta_exceeds);
      ASSERT_EQ(summary.stake_stats.size(), full.stake_stats.size());
      for (std::size_t k = 0; k < full.stake_stats.size(); ++k) {
        EXPECT_EQ(summary.stake_stats[k].mean(), full.stake_stats[k].mean());
        EXPECT_EQ(summary.stake_stats[k].variance(),
                  full.stake_stats[k].variance());
      }
    }
  }
}

TEST(SummaryBitIdentity, AttackSim) {
  bouncing::AttackSimConfig cfg;
  cfg.runs = env::scaled_count(120);
  cfg.honest_validators = 20;
  cfg.max_epochs = 1000;
  cfg.seed = 31;
  const auto full = bouncing::run_attack_sim(cfg);
  ASSERT_FALSE(full.durations.empty());
  for (const std::size_t block : kBlockGrid) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      cfg.keep_runs = false;
      const auto summary = bouncing::run_attack_sim(cfg);
      cfg.keep_runs = true;
      // The guard: summary mode must not materialize per-run slabs.
      EXPECT_TRUE(summary.durations.empty());
      EXPECT_TRUE(summary.break_epochs.empty());
      EXPECT_EQ(summary.prob_threshold_broken, full.prob_threshold_broken);
      EXPECT_EQ(summary.mean_duration, full.mean_duration);
      EXPECT_EQ(summary.median_duration, full.median_duration);
      EXPECT_EQ(summary.p99_duration, full.p99_duration);
    }
  }
}

TEST(SummaryBitIdentity, PopulationEnsemble) {
  bouncing::PopulationEnsembleConfig cfg;
  cfg.base.honest_validators = 25;
  cfg.base.epochs = 250;
  cfg.base.beta0 = 1.0 / 3.0;
  cfg.paths = env::scaled_count(10);
  const auto full = bouncing::run_population_ensemble(cfg);
  ASSERT_FALSE(full.first_exceed_epochs.empty());
  for (const std::size_t block : kBlockGrid) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      cfg.keep_paths = false;
      const auto summary = bouncing::run_population_ensemble(cfg);
      cfg.keep_paths = true;
      EXPECT_TRUE(summary.first_exceed_epochs.empty());
      EXPECT_EQ(summary.exceed_fraction, full.exceed_fraction);
      EXPECT_EQ(summary.mean_final_beta, full.mean_final_beta);
    }
  }
}

// Cross-check against the oracle: summary mode is transitively
// bit-identical to the pre-rollout scalar aggregation, not just to the
// batched full mode.
TEST(SummaryBitIdentity, AttackSummaryMatchesScalarOracle) {
  bouncing::AttackSimConfig cfg;
  cfg.runs = env::scaled_count(80);
  cfg.honest_validators = 15;
  cfg.max_epochs = 800;
  cfg.seed = 3;
  const auto ref = oracle::run_attack_sim_scalar(cfg);
  cfg.keep_runs = false;
  cfg.threads = 4;
  cfg.block = 8;
  const auto summary = bouncing::run_attack_sim(cfg);
  EXPECT_EQ(summary.prob_threshold_broken, ref.prob_threshold_broken);
  EXPECT_EQ(summary.mean_duration, ref.mean_duration);
  EXPECT_EQ(summary.median_duration, ref.median_duration);
  EXPECT_EQ(summary.p99_duration, ref.p99_duration);
}

}  // namespace
}  // namespace leak
