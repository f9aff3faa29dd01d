// Contract of the parallel experiment runner: merged results are
// bit-identical for any thread count (the conf_dsn_PavloffAP24
// reproducibility requirement — one seed, one result), the auto block
// spreads even a short cell over every worker, per-trial RNG streams
// are decorrelated, and a throwing trial propagates cleanly out of the
// workers instead of deadlocking them — the lowest failing block's
// exception being the one rethrown.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/runner/thread_pool.hpp"
#include "src/runner/trial_runner.hpp"
#include "src/scenario/registry.hpp"
#include "src/sim/partition_sim.hpp"
#include "src/support/json.hpp"
#include "src/support/random.hpp"

namespace leak {
namespace {

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(runner::resolve_threads(3), 3u);
  EXPECT_GE(runner::resolve_threads(0), 1u);
}

std::vector<std::uint64_t> runner_draws(unsigned threads, std::size_t n) {
  const runner::TrialRunner pool(threads);
  const StreamSeeder seeder(42);
  return pool.run(n, [&seeder](std::size_t i) {
    Rng rng = seeder.stream(i);
    std::uint64_t acc = 0;
    for (int k = 0; k < 100; ++k) acc ^= rng();
    return acc;
  });
}

TEST(TrialRunner, MergedResultsIdenticalAcrossThreadCounts) {
  const auto one = runner_draws(1, 333);
  ASSERT_EQ(one.size(), 333u);
  for (const unsigned threads : {2u, 8u}) {
    EXPECT_EQ(runner_draws(threads, 333), one) << threads << " threads";
  }
}

TEST(TrialRunner, ZeroTrialsReturnsEmpty) {
  const runner::TrialRunner pool(4);
  const auto r = pool.run(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(r.empty());
}

TEST(TrialRunner, FewerTrialsThanThreads) {
  const auto r = runner_draws(8, 3);
  EXPECT_EQ(r, runner_draws(1, 3));
}

TEST(TrialRunner, ExceptionPropagatesWithoutDeadlock) {
  const runner::TrialRunner pool(4);
  EXPECT_THROW((void)pool.run(512,
                              [](std::size_t i) {
                                if (i >= 100) {
                                  throw std::runtime_error("trial failed");
                                }
                                return i;
                              }),
               std::runtime_error);
  // The pool drained cleanly: the runner is immediately reusable.
  EXPECT_EQ(pool.run(16, [](std::size_t i) { return i; }).size(), 16u);
}

TEST(TrialRunner, SerialExceptionPropagates) {
  const runner::TrialRunner pool(1);
  EXPECT_THROW((void)pool.run(8,
                              [](std::size_t i) {
                                if (i == 5) {
                                  throw std::invalid_argument("bad trial");
                                }
                                return i;
                              }),
               std::invalid_argument);
}

// Every block below throws its `begin`; block 0 is always claimed
// first and always runs, so whichever blocks the other workers also
// ran, the rethrown exception must be block 0's.
template <typename Body>
std::string rethrown_message(Body&& body) {
  try {
    body();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

TEST(LowestFailingBlock, RunRethrowsTrialZero) {
  const runner::TrialRunner pool(4);
  EXPECT_EQ(rethrown_message([&] {
              (void)pool.run(256, [](std::size_t i) -> int {
                throw std::runtime_error(std::to_string(i));
              });
            }),
            "0");
}

TEST(LowestFailingBlock, RunBlocksRethrowsBlockZero) {
  const runner::TrialRunner pool(4);
  EXPECT_EQ(rethrown_message([&] {
              pool.run_blocks(256, 8, [](std::size_t begin, std::size_t) {
                throw std::runtime_error(std::to_string(begin));
              });
            }),
            "0");
}

// Sets (or, given nullopt, unsets) LEAK_BLOCK for its lifetime and
// restores the value the process started with.
class ScopedLeakBlock {
 public:
  explicit ScopedLeakBlock(const std::optional<std::string>& value) {
    if (const char* old = std::getenv("LEAK_BLOCK")) saved_ = old;
    if (value) {
      setenv("LEAK_BLOCK", value->c_str(), 1);
    } else {
      unsetenv("LEAK_BLOCK");
    }
  }
  ~ScopedLeakBlock() {
    if (saved_) {
      setenv("LEAK_BLOCK", saved_->c_str(), 1);
    } else {
      unsetenv("LEAK_BLOCK");
    }
  }
  ScopedLeakBlock(const ScopedLeakBlock&) = delete;
  ScopedLeakBlock& operator=(const ScopedLeakBlock&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// The [begin, end) bounds run_blocks hands out, sorted by begin.
std::vector<std::pair<std::size_t, std::size_t>> block_bounds(
    unsigned threads, std::size_t n, std::size_t block,
    std::size_t granule = 1) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  runner::TrialRunner(threads).run_blocks(
      n, block,
      [&](std::size_t begin, std::size_t end) {
        const std::scoped_lock lk(mu);
        bounds.emplace_back(begin, end);
      },
      granule);
  std::sort(bounds.begin(), bounds.end());
  return bounds;
}

/// Whether `bounds` tile [0, n) with blocks of exactly `block` trials
/// (the last one shorter).
bool tiles_with(const std::vector<std::pair<std::size_t, std::size_t>>& bounds,
                std::size_t n, std::size_t block) {
  std::size_t next = 0;
  for (const auto& [begin, end] : bounds) {
    if (begin != next || end != std::min(begin + block, n)) return false;
    next = end;
  }
  return next == n;
}

TEST(RunBlocks, AutoBlockReachesEveryWorker) {
  const ScopedLeakBlock unset(std::nullopt);
  EXPECT_EQ(runner::resolve_block(0), 64u);
  for (const std::size_t n : {1ul, 2ul, 3ul, 16ul, 1535ul, 1536ul, 100000ul}) {
    const auto bounds = block_bounds(3, n, 0);
    EXPECT_GE(bounds.size(), std::min<std::size_t>(n, 3)) << "n=" << n;
    std::size_t next = 0;
    for (const auto& [begin, end] : bounds) {
      EXPECT_EQ(begin, next) << "n=" << n;
      EXPECT_LE(end - begin, 64u) << "n=" << n;
      next = end;
    }
    EXPECT_EQ(next, n);
    EXPECT_TRUE(tiles_with(block_bounds(1, n, 0), n, 64)) << "n=" << n;
  }
  // An explicit block wins over the auto rule at any thread count.
  EXPECT_TRUE(tiles_with(block_bounds(3, 1536, 5), 1536, 5));
  EXPECT_TRUE(tiles_with(block_bounds(3, 16, 100), 16, 16));
  {
    const ScopedLeakBlock set(std::string("7"));
    EXPECT_TRUE(tiles_with(block_bounds(3, 1536, 0), 1536, 7));
    EXPECT_TRUE(tiles_with(block_bounds(1, 1536, 0), 1536, 7));
    EXPECT_TRUE(tiles_with(block_bounds(3, 1536, 5), 1536, 5));
  }
  EXPECT_EQ(runner::resolve_block(0), 64u);
}

// A granule rounds the block, resolved in trials as without one, up
// to whole granules: LEAK_BLOCK and the auto rule keep their meaning
// for drivers that play trials a tile of lanes at a time.
TEST(RunBlocks, GranuleRoundsTheBlockInTrialsUpToWholeGranules) {
  {
    const ScopedLeakBlock set(std::string("64"));
    // 256 trials in 64-trial blocks reach four workers, tiles of 8 or not.
    EXPECT_TRUE(tiles_with(block_bounds(4, 256, 0, 8), 256, 64));
    EXPECT_TRUE(tiles_with(block_bounds(4, 256, 0, 1), 256, 64));
  }
  {
    const ScopedLeakBlock set(std::string("7"));
    EXPECT_TRUE(tiles_with(block_bounds(3, 100, 0, 8), 100, 8));
  }
  const ScopedLeakBlock unset(std::nullopt);
  // Auto: 256 / (3 * 8) = 10 trials, rounded up to 16.
  EXPECT_TRUE(tiles_with(block_bounds(3, 256, 0, 8), 256, 16));
  // Auto on four workers: 1 trial, one granule of 4 per block.
  EXPECT_TRUE(tiles_with(block_bounds(4, 16, 0, 4), 16, 4));
  // Explicit: 7 -> 8, and a block past n is one granule-rounded block.
  EXPECT_TRUE(tiles_with(block_bounds(3, 19, 7, 4), 19, 8));
  EXPECT_TRUE(tiles_with(block_bounds(3, 5, 100, 8), 5, 8));
}

/// A report's results (metrics, stats and trial rows) as JSON; doubles
/// print as their shortest round-trip text, so equal text is equal bits.
std::string result_fields(const scenario::ScenarioResult& r) {
  const json::Value doc = r.to_json();
  std::string out;
  for (const char* key : {"metrics", "stats", "trials"}) {
    if (const json::Value* v = doc.find(key)) out += v->dump();
  }
  return out;
}

// The scenarios whose cells the auto block now spreads over workers
// report what one worker running 64-trial blocks reports, bit for bit.
TEST(RunBlocks, AutoBlockScenariosMatchSerialBlock64) {
  const ScopedLeakBlock unset(std::nullopt);
  struct Cell {
    const char* name;
    std::int64_t paths;
    std::int64_t epochs;  // 0 keeps the default horizon
  };
  // The population horizon is cut from 6000 epochs to keep the suite
  // short under TSan; the block layout depends on paths alone.
  const Cell cells[] = {{"partition-trials", 16, 0},
                        {"population-ensemble", 256, 400},
                        {"bouncing-mc", 100, 0}};
  for (const auto& [name, paths, epochs] : cells) {
    const auto& sc = *scenario::builtin_registry().find(name);
    auto params = sc.spec().defaults();
    params.set("paths", paths);
    if (epochs > 0) params.set("epochs", epochs);
    params.set("block", std::int64_t{64});
    params.set("threads", std::int64_t{1});
    const std::string want = result_fields(sc.run(params));
    params.set("block", std::int64_t{0});
    for (const std::int64_t threads : {1, 3}) {
      params.set("threads", threads);
      EXPECT_EQ(result_fields(sc.run(params)), want)
          << name << " threads=" << threads;
    }
  }
}

TEST(StreamSeeder, DeterministicAndDistinctFromMaster) {
  const StreamSeeder seeder(7);
  EXPECT_EQ(seeder.seed_for(0), seeder.seed_for(0));
  EXPECT_NE(seeder.seed_for(0), 7u);
  EXPECT_NE(seeder.seed_for(0), StreamSeeder(8).seed_for(0));
}

TEST(StreamSeeder, AdjacentSeedsWellMixed) {
  // The avalanche mixer should flip roughly half the 64 bits between
  // adjacent trial indices; [10, 54] is a very loose 6-sigma band.
  const StreamSeeder seeder(7);
  for (std::uint64_t i = 0; i < 256; ++i) {
    const std::uint64_t a = seeder.seed_for(i);
    const std::uint64_t b = seeder.seed_for(i + 1);
    ASSERT_NE(a, b);
    const int bits = std::popcount(a ^ b);
    EXPECT_GE(bits, 10) << "index " << i;
    EXPECT_LE(bits, 54) << "index " << i;
  }
}

TEST(StreamSeeder, AdjacentStreamsDecorrelated) {
  // Pearson correlation of uniforms from adjacent streams is
  // approximately N(0, 1/sqrt(n)); |r| < 4/sqrt(n) is a 4-sigma bound.
  const StreamSeeder seeder(123);
  constexpr std::size_t kN = 4096;
  Rng a = seeder.stream(1000);
  Rng b = seeder.stream(1001);
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  const double n = static_cast<double>(kN);
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double vx = sxx / n - (sx / n) * (sx / n);
  const double vy = syy / n - (sy / n) * (sy / n);
  const double r = cov / std::sqrt(vx * vy);
  EXPECT_LT(std::abs(r), 4.0 / std::sqrt(n));
}

// Acceptance criterion: run_bouncing_mc with the same seed returns an
// identical McResult for threads in {1, 4, hardware_concurrency}.
TEST(ParallelDeterminism, BouncingMcIdenticalAcrossThreadCounts) {
  bouncing::McConfig cfg;
  cfg.paths = 400;
  cfg.epochs = 800;
  cfg.seed = 9;
  const std::vector<std::size_t> snaps{200, 800};
  cfg.threads = 1;
  const auto base = bouncing::run_bouncing_mc(cfg, snaps);
  for (const unsigned threads : {4u, runner::resolve_threads(0)}) {
    cfg.threads = threads;
    const auto r = bouncing::run_bouncing_mc(cfg, snaps);
    EXPECT_EQ(r.epochs, base.epochs) << threads << " threads";
    EXPECT_EQ(r.stakes, base.stakes) << threads << " threads";
    EXPECT_EQ(r.ejected_fraction, base.ejected_fraction);
    EXPECT_EQ(r.capped_fraction, base.capped_fraction);
    EXPECT_EQ(r.prob_beta_exceeds, base.prob_beta_exceeds);
  }
}

TEST(ParallelDeterminism, AttackSimIdenticalAcrossThreadCounts) {
  bouncing::AttackSimConfig cfg;
  cfg.runs = 200;
  cfg.honest_validators = 30;
  cfg.max_epochs = 2000;
  cfg.seed = 77;
  cfg.threads = 1;
  const auto base = bouncing::run_attack_sim(cfg);
  for (const unsigned threads : {4u, 8u}) {
    cfg.threads = threads;
    const auto r = bouncing::run_attack_sim(cfg);
    EXPECT_EQ(r.durations, base.durations) << threads << " threads";
    EXPECT_EQ(r.break_epochs, base.break_epochs);
    EXPECT_EQ(r.mean_duration, base.mean_duration);
    EXPECT_EQ(r.prob_threshold_broken, base.prob_threshold_broken);
  }
}

TEST(ParallelDeterminism, PartitionTrialsIdenticalAcrossThreadCounts) {
  sim::PartitionTrialsConfig cfg;
  cfg.base.n_validators = 120;
  cfg.base.strategy = sim::Strategy::kNone;
  cfg.base.max_epochs = 600;
  cfg.trials = 8;
  cfg.seed = 5;
  cfg.threads = 1;
  const auto base = sim::run_partition_trials(cfg);
  EXPECT_EQ(base.conflict_epochs.size(), cfg.trials);
  cfg.threads = 4;
  const auto r = sim::run_partition_trials(cfg);
  EXPECT_EQ(r.conflict_epochs, base.conflict_epochs);
  EXPECT_EQ(r.beta_peaks, base.beta_peaks);
  EXPECT_EQ(r.conflicting_fraction, base.conflicting_fraction);
  EXPECT_EQ(r.mean_conflict_epoch, base.mean_conflict_epoch);
}

TEST(ParallelDeterminism, PopulationEnsembleIdenticalAcrossThreadCounts) {
  bouncing::PopulationEnsembleConfig cfg;
  cfg.base.honest_validators = 40;
  cfg.base.epochs = 400;
  cfg.base.beta0 = 1.0 / 3.0;
  cfg.paths = 6;
  cfg.threads = 1;
  const auto base = bouncing::run_population_ensemble(cfg);
  EXPECT_EQ(base.first_exceed_epochs.size(), cfg.paths);
  EXPECT_GE(base.exceed_fraction, 0.0);
  EXPECT_LE(base.exceed_fraction, 1.0);
  cfg.threads = 4;
  const auto r = bouncing::run_population_ensemble(cfg);
  EXPECT_EQ(r.first_exceed_epochs, base.first_exceed_epochs);
  EXPECT_EQ(r.mean_final_beta, base.mean_final_beta);
}

}  // namespace
}  // namespace leak
