// Contract of the batched Monte Carlo engine: the block-scheduled SoA
// kernel and every block-converted driver are bit-identical to the
// scalar reference for every (block_size, threads) combination, and
// keep_paths = false drops the per-path matrix from the result while
// producing the same summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/kernel/cohort.hpp"
#include "src/kernel/stake_batch.hpp"
#include "src/runner/thread_pool.hpp"
#include "src/runner/trial_runner.hpp"
#include "src/scenario/registry.hpp"
#include "src/sim/partition_sim.hpp"
#include "tests/oracles/scalar_oracles.hpp"
#include "tests/path_scale.hpp"
#include "tests/population_run.hpp"

namespace leak {
namespace {

// The (block, threads) grid every driver is checked over.  `0` stands
// for "paths" (resolved per test), exercising one-block scheduling.
std::vector<std::size_t> block_grid(std::size_t paths) {
  return {1, 7, 64, paths};
}
constexpr unsigned kThreadGrid[] = {1, 4};

// The (model, p0) grid the scalar-oracle tests are checked over.  The
// kernels decide each Bernoulli draw with the integer cut of
// bernoulli_cut: p0 = 0 (no lane ever active) and p0 = 1 (every lane
// always active) are its ends, 1/3 a cut that is not a power of two,
// 0.5 the paper's split.  The second model's quotient is not a power of
// two, so a penalty taken as a multiply by 1 / quotient would not equal
// the oracle's division; it is small and the ejection threshold low, so
// the penalty is a large share of a long-lived stake and a one-ulp
// change in it reaches the reported sums.
constexpr double kOracleP0[] = {0.0, 1.0 / 3.0, 0.5, 1.0};

std::vector<analytic::AnalyticConfig> oracle_models() {
  auto odd = analytic::AnalyticConfig::paper();
  odd.quotient = 3.0 * 4096.0;
  odd.ejection_threshold = 1e-3;
  return {analytic::AnalyticConfig::paper(), odd};
}

std::string oracle_label(double p0, const analytic::AnalyticConfig& model) {
  return "p0=" + std::to_string(p0) +
         " quotient=" + std::to_string(model.quotient);
}

void expect_mc_equal(const bouncing::McResult& a, const bouncing::McResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.epochs, b.epochs) << label;
  EXPECT_EQ(a.stakes, b.stakes) << label;
  EXPECT_EQ(a.ejected_fraction, b.ejected_fraction) << label;
  EXPECT_EQ(a.capped_fraction, b.capped_fraction) << label;
  EXPECT_EQ(a.prob_beta_exceeds, b.prob_beta_exceeds) << label;
  ASSERT_EQ(a.stake_stats.size(), b.stake_stats.size()) << label;
  for (std::size_t k = 0; k < a.stake_stats.size(); ++k) {
    EXPECT_EQ(a.stake_stats[k].count(), b.stake_stats[k].count()) << label;
    EXPECT_EQ(a.stake_stats[k].mean(), b.stake_stats[k].mean()) << label;
    EXPECT_EQ(a.stake_stats[k].variance(), b.stake_stats[k].variance())
        << label;
    EXPECT_EQ(a.stake_stats[k].min(), b.stake_stats[k].min()) << label;
    EXPECT_EQ(a.stake_stats[k].max(), b.stake_stats[k].max()) << label;
  }
}

// Acceptance criterion: the batched kernel reproduces the scalar
// kernel bit-for-bit for block sizes {1, 7, 33, 64, paths} x threads
// {1, 4} at every (model, p0) of the oracle grid, spanning the ejection
// wave so all three path states (capped, bulk, ejected) occur.  Block 33
// is no whole number of register tiles on any target, so its last tile
// carries padding lanes.  Under the second model most paths are ejected
// by epoch 400, so the snapshot at 200 is the one where a penalty taken
// as a multiply by 1 / quotient shows.  The second grid records each of
// the first three epochs (one-epoch advances) and then jumps to the
// horizon; with the second model at p0 = 0 every path ejects near epoch
// 250, so the first grid's blocks stop at snapshot 600 and write their
// zeros there.
TEST(BatchBitIdentity, BouncingMcMatchesScalarForEveryBlockAndThreads) {
  const std::vector<std::vector<std::size_t>> grids{{17, 200, 600, 1200},
                                                    {1, 2, 3, 1200}};
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      for (const auto& snaps : grids) {
        bouncing::McConfig cfg;
        cfg.paths = env::scaled_count(400);
        cfg.epochs = 1200;
        cfg.seed = 41;
        cfg.p0 = p0;
        cfg.model = model;
        cfg.threads = 1;
        const auto ref = oracle::run_bouncing_mc_scalar(cfg, snaps);
        ASSERT_EQ(ref.stakes.size(), snaps.size());
        auto blocks = block_grid(cfg.paths);
        blocks.push_back(33);
        for (const std::size_t block : blocks) {
          for (const unsigned threads : kThreadGrid) {
            cfg.block = block;
            cfg.threads = threads;
            expect_mc_equal(bouncing::run_bouncing_mc(cfg, snaps), ref,
                            oracle_label(p0, model) + " grid=" +
                                std::to_string(snaps.front()) +
                                " block=" + std::to_string(block) +
                                " threads=" + std::to_string(threads));
          }
        }
      }
    }
  }
}

// A block whose real lanes all eject before its last snapshot stops
// advancing there; the zeros it writes for the skipped snapshots equal
// the oracle's, and padding lanes (block 33) never hold the block open.
TEST(BatchBitIdentity, EjectedBlockWritesTheOraclesZeros) {
  auto model = oracle_models().back();
  bouncing::McConfig cfg;
  cfg.paths = 99;
  cfg.epochs = 1200;
  cfg.seed = 5;
  cfg.p0 = 0.0;
  cfg.model = model;
  const std::vector<std::size_t> snaps{1, 2, 3, 600, 1000, 1200};
  const auto ref = oracle::run_bouncing_mc_scalar(cfg, snaps);
  // The case is real: nobody is ejected at epoch 3, everybody by 600.
  EXPECT_EQ(ref.ejected_fraction[2], 0.0);
  EXPECT_EQ(ref.ejected_fraction[3], 1.0);
  for (const std::size_t block : {1ul, 33ul, 99ul}) {
    cfg.block = block;
    expect_mc_equal(bouncing::run_bouncing_mc(cfg, snaps), ref,
                    "block=" + std::to_string(block));
  }
}

// advance(k) is k one-epoch steps: the same stake, score and four RNG
// words in every lane, padding lanes included, for lane counts around
// the register tile and for every (model, p0) of the oracle grid.
// Stake and score are never -0.0 or NaN, so == on them is bit equality.
TEST(BatchPaths, AdvanceEqualsRepeatedSteps) {
  const std::size_t tile = kernel::BatchPaths::tile_lanes();
  ASSERT_GE(tile, 2u);
  const StreamSeeder seeder(13);
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      for (const std::size_t lanes :
           {std::size_t{1}, tile - 1, tile, tile + 1, 2 * tile + 3,
            std::size_t{64}}) {
        for (const std::size_t k : {0ul, 1ul, 2ul, 7ul, 4024ul}) {
          kernel::BatchPaths advanced;
          kernel::BatchPaths stepped;
          advanced.reset(model, seeder, 3, lanes);
          stepped.reset(model, seeder, 3, lanes);
          advanced.advance(model, p0, k);
          for (std::size_t e = 0; e < k; ++e) stepped.step(model, p0);
          EXPECT_TRUE(advanced == stepped)
              << oracle_label(p0, model) << " lanes=" << lanes << " k=" << k;
          EXPECT_EQ(advanced.stake().size(), lanes);
        }
      }
    }
  }
}

// Padding lanes hold stake 0 like ejected paths: once every real lane
// is ejected the block reports all_ejected(), whatever the tile width.
// Under the second model at p0 = 0.5 every path ejects within about 600
// epochs; a padding lane seeded like a live one would not (its zero RNG
// words draw 0, always active, so its score stays 0).
TEST(BatchPaths, PaddingLanesNeverHoldTheBlockOpen) {
  const std::size_t tile = kernel::BatchPaths::tile_lanes();
  const auto model = oracle_models().back();
  const StreamSeeder seeder(8);
  for (const std::size_t lanes : {std::size_t{1}, tile - 1, tile + 1}) {
    kernel::BatchPaths paths;
    paths.reset(model, seeder, 0, lanes);
    EXPECT_FALSE(paths.all_ejected()) << lanes;
    paths.advance(model, 0.5, 1200);
    EXPECT_TRUE(paths.all_ejected()) << lanes;
  }
}

// The block kernel refuses a grid it cannot walk forward: one that is
// not strictly increasing, names epoch 0, or runs past the horizon (a
// decreasing grid would otherwise ask for a near-endless advance).
TEST(BatchPaths, SimulateStakeBlockRejectsBadGrids) {
  const auto model = analytic::AnalyticConfig::paper();
  const StreamSeeder seeder(1);
  kernel::BatchPaths scratch;
  std::vector<std::vector<double>> stakes(3, std::vector<double>(4, -1.0));
  const std::vector<double*> rows{stakes[0].data(), stakes[1].data(),
                                  stakes[2].data()};
  const std::vector<std::vector<std::size_t>> bad{
      {5, 3, 8}, {3, 3, 8}, {0, 3, 8}, {3, 8, 11}};
  for (const auto& snaps : bad) {
    EXPECT_THROW(kernel::simulate_stake_block(model, 0.5, 10, snaps, seeder,
                                              0, 4, scratch, rows.data()),
                 std::invalid_argument)
        << snaps[0] << "," << snaps[1] << "," << snaps[2];
    bouncing::McConfig cfg;
    cfg.paths = 4;
    cfg.epochs = 10;
    EXPECT_THROW(bouncing::run_bouncing_mc(cfg, snaps), std::invalid_argument);
  }
  for (const auto& row : stakes) {
    EXPECT_EQ(row, std::vector<double>(4, -1.0));  // nothing recorded
  }
  kernel::simulate_stake_block(model, 0.5, 10, {3, 8, 10}, seeder, 0, 4,
                               scratch, rows.data());
  EXPECT_GT(stakes[2][0], 0.0);
}

// The early stop writes the zeros itself: rows after the snapshot at
// which every path of the block is ejected hold 0.0, whatever they held.
TEST(BatchPaths, SimulateStakeBlockWritesZerosAfterTheBlockEjects) {
  const auto model = oracle_models().back();  // all eject near epoch 250
  const StreamSeeder seeder(5);
  kernel::BatchPaths scratch;
  constexpr std::size_t kPaths = 5;
  std::vector<std::vector<double>> stakes(3, std::vector<double>(kPaths, -1.0));
  const std::vector<double*> rows{stakes[0].data(), stakes[1].data(),
                                  stakes[2].data()};
  kernel::simulate_stake_block(model, 0.0, 1200, {3, 600, 1200}, seeder, 0,
                               kPaths, scratch, rows.data());
  for (const double s : stakes[0]) EXPECT_GT(s, 0.0);
  EXPECT_EQ(stakes[1], std::vector<double>(kPaths, 0.0));
  EXPECT_EQ(stakes[2], std::vector<double>(kPaths, 0.0));
}

// keep_paths = false: no per-path matrix in the result, same counts
// and streaming summaries, for every (block, threads) pair.
TEST(BatchBitIdentity, SummaryModeNeverMaterializesPathsAndMatchesFull) {
  bouncing::McConfig cfg;
  cfg.paths = env::scaled_count(300);
  cfg.epochs = 900;
  cfg.seed = 99;
  cfg.threads = 1;
  const std::vector<std::size_t> snaps{450, 900};
  const auto full = bouncing::run_bouncing_mc(cfg, snaps);
  ASSERT_FALSE(full.stakes.empty());
  for (const std::size_t block : block_grid(cfg.paths)) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      cfg.keep_paths = false;
      const auto summary = bouncing::run_bouncing_mc(cfg, snaps);
      cfg.keep_paths = true;
      // The guard: the result must not carry the matrix.
      EXPECT_TRUE(summary.stakes.empty());
      EXPECT_EQ(summary.ejected_fraction, full.ejected_fraction);
      EXPECT_EQ(summary.capped_fraction, full.capped_fraction);
      EXPECT_EQ(summary.prob_beta_exceeds, full.prob_beta_exceeds);
      ASSERT_EQ(summary.stake_stats.size(), full.stake_stats.size());
      for (std::size_t k = 0; k < full.stake_stats.size(); ++k) {
        EXPECT_EQ(summary.stake_stats[k].count(),
                  full.stake_stats[k].count());
        EXPECT_EQ(summary.stake_stats[k].mean(), full.stake_stats[k].mean());
        EXPECT_EQ(summary.stake_stats[k].variance(),
                  full.stake_stats[k].variance());
      }
    }
  }
}

TEST(BatchBitIdentity, AttackSimIdenticalForEveryBlockAndThreads) {
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      bouncing::AttackSimConfig cfg;
      cfg.runs = env::scaled_count(150);
      cfg.honest_validators = 25;
      cfg.max_epochs = 1500;
      cfg.seed = 77;
      cfg.p0 = p0;
      cfg.model = model;
      cfg.threads = 1;
      cfg.block = 1;
      // The scalar oracle is the fixed reference: the batched driver
      // must reproduce it bit-for-bit at every (block, threads).
      const auto ref = oracle::run_attack_sim_scalar(cfg);
      for (const std::size_t block : block_grid(cfg.runs)) {
        for (const unsigned threads : kThreadGrid) {
          cfg.block = block;
          cfg.threads = threads;
          const auto r = bouncing::run_attack_sim(cfg);
          const auto label = oracle_label(p0, model) + " " +
                             std::to_string(block) + "/" +
                             std::to_string(threads);
          EXPECT_EQ(r.durations, ref.durations) << label;
          EXPECT_EQ(r.break_epochs, ref.break_epochs) << label;
          EXPECT_EQ(r.mean_duration, ref.mean_duration) << label;
          EXPECT_EQ(r.median_duration, ref.median_duration) << label;
          EXPECT_EQ(r.p99_duration, ref.p99_duration) << label;
          EXPECT_EQ(r.prob_threshold_broken, ref.prob_threshold_broken)
              << label;
        }
      }
    }
  }
}

TEST(BatchBitIdentity, PopulationEnsembleIdenticalForEveryBlockAndThreads) {
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      bouncing::PopulationEnsembleConfig cfg;
      cfg.base.honest_validators = 30;
      cfg.base.epochs = 300;
      cfg.base.beta0 = 1.0 / 3.0;
      cfg.base.p0 = p0;
      cfg.base.model = model;
      cfg.paths = env::scaled_count(12);
      cfg.threads = 1;
      cfg.block = 1;
      const auto ref = oracle::run_population_ensemble_scalar(cfg);
      for (const std::size_t block : block_grid(cfg.paths)) {
        for (const unsigned threads : kThreadGrid) {
          cfg.block = block;
          cfg.threads = threads;
          const auto r = bouncing::run_population_ensemble(cfg);
          const auto label = oracle_label(p0, model) + " " +
                             std::to_string(block) + "/" +
                             std::to_string(threads);
          EXPECT_EQ(r.first_exceed_epochs, ref.first_exceed_epochs) << label;
          EXPECT_EQ(r.exceed_fraction, ref.exceed_fraction) << label;
          EXPECT_EQ(r.mean_final_beta, ref.mean_final_beta) << label;
        }
      }
    }
  }
}

TEST(BatchBitIdentity, PartitionTrialsIdenticalForEveryBlockAndThreads) {
  sim::PartitionTrialsConfig cfg;
  cfg.base.n_validators = 100;
  cfg.base.strategy = sim::Strategy::kNone;
  cfg.base.max_epochs = 500;
  cfg.base.trajectory_stride = 500;
  cfg.trials = env::scaled_count(10);
  cfg.seed = 5;
  cfg.threads = 1;
  cfg.block = 1;
  const auto ref = oracle::run_partition_trials_scalar(cfg);
  for (const std::size_t block : block_grid(cfg.trials)) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      const auto r = sim::run_partition_trials(cfg);
      EXPECT_EQ(r.conflict_epochs, ref.conflict_epochs)
          << block << "/" << threads;
      EXPECT_EQ(r.beta_peaks, ref.beta_peaks) << block << "/" << threads;
      EXPECT_EQ(r.conflicting_fraction, ref.conflicting_fraction);
      EXPECT_EQ(r.beta_exceeded_fraction, ref.beta_exceeded_fraction);
      EXPECT_EQ(r.mean_conflict_epoch, ref.mean_conflict_epoch);
    }
  }
}

// Sweep cells are block-size independent: a registry scenario run at
// block 1 and block 64 emits identical metrics and trial rows.
TEST(BatchBitIdentity, ScenarioRunsAreBlockSizeIndependent) {
  const auto& sc = *scenario::builtin_registry().find("bouncing-mc");
  auto params = sc.spec().defaults();
  params.set("paths", static_cast<std::int64_t>(env::scaled_count(200)));
  params.set("epochs", std::int64_t{400});
  params.set("block", std::int64_t{1});
  const auto base = sc.run(params);
  for (const std::int64_t block : {7, 64, 4096}) {
    params.set("block", block);
    const auto r = sc.run(params);
    EXPECT_EQ(r.metrics, base.metrics) << "block=" << block;
    ASSERT_TRUE(r.trials.has_value());
    EXPECT_EQ(r.trials->to_csv(), base.trials->to_csv()) << "block=" << block;
  }
}

// --- the block runner itself -------------------------------------------

TEST(RunBlocks, CoversEveryTrialExactlyOnce) {
  const runner::TrialRunner pool(4);
  for (const std::size_t n : {1ul, 5ul, 64ul, 129ul}) {
    for (const std::size_t block : {1ul, 7ul, 64ul, 200ul}) {
      std::vector<std::atomic<int>> hits(n);
      pool.run_blocks(n, block, [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        ASSERT_LE(end - begin, block);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << n << "/" << block << "/" << i;
      }
    }
  }
}

TEST(RunBlocks, ExceptionPropagatesAndPoolStaysUsable) {
  const runner::TrialRunner pool(4);
  EXPECT_THROW(
      pool.run_blocks(256, 8,
                      [&](std::size_t begin, std::size_t) {
                        if (begin >= 64) {
                          throw std::runtime_error("block failed");
                        }
                      }),
      std::runtime_error);
  std::atomic<int> count{0};
  pool.run_blocks(32, 4, [&](std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ResolveBlock, ExplicitWinsElseEnvElseDefault) {
  EXPECT_EQ(runner::resolve_block(17), 17u);
  EXPECT_GE(runner::resolve_block(0), 1u);
}

// The scalar oracle ignores block/keep_paths: it is the fixed
// reference the batched kernel is measured against.
TEST(ScalarReference, IgnoresBatchKnobs) {
  bouncing::McConfig cfg;
  cfg.paths = 50;
  cfg.epochs = 100;
  const auto a = oracle::run_bouncing_mc_scalar(cfg, {100});
  cfg.block = 7;
  cfg.keep_paths = false;
  const auto b = oracle::run_bouncing_mc_scalar(cfg, {100});
  EXPECT_EQ(a.stakes, b.stakes);
  EXPECT_FALSE(b.stakes.empty());
}

// Single-population run: the cohort kernel's serial draw pass consumes
// the shared RNG stream in exactly the scalar order, so the whole
// trajectory is bit-identical at every (model, p0) of the oracle grid.
TEST(BatchBitIdentity, PopulationRunMatchesScalarOracle) {
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      bouncing::PopulationRunConfig cfg;
      cfg.honest_validators = 40;
      cfg.epochs = 800;
      cfg.beta0 = 1.0 / 3.0;
      cfg.seed = 23;
      cfg.p0 = p0;
      cfg.model = model;
      const auto ref = oracle::run_population_bouncing_scalar(cfg);
      const auto r = bouncing::run_population_bouncing(cfg);
      const auto label = oracle_label(p0, model);
      EXPECT_EQ(r.first_exceed_epoch, ref.first_exceed_epoch) << label;
      EXPECT_EQ(r.beta_trajectory, ref.beta_trajectory) << label;
    }
  }
}

// Cohort run tiles: run and path counts around the widest tile, each
// at blocks that split them inside, at and across tiles, on one and
// four threads (four threads narrow the tile to each worker's share,
// so every width up to the widest plays), against the scalar oracles
// over the (model, p0) grid.
std::vector<std::size_t> tile_counts() {
  const std::size_t lanes = kernel::CohortTile::max_lanes();
  return {1, lanes - 1, lanes + 1, 2 * lanes + 3};
}
constexpr std::size_t kTileBlocks[] = {1, 7, 64};

void expect_attack_equal(const bouncing::AttackSimResult& r,
                         const bouncing::AttackSimResult& ref,
                         const std::string& label) {
  EXPECT_EQ(r.durations, ref.durations) << label;
  EXPECT_EQ(r.break_epochs, ref.break_epochs) << label;
  EXPECT_EQ(r.mean_duration, ref.mean_duration) << label;
  EXPECT_EQ(r.median_duration, ref.median_duration) << label;
  EXPECT_EQ(r.p99_duration, ref.p99_duration) << label;
  EXPECT_EQ(r.prob_threshold_broken, ref.prob_threshold_broken) << label;
}

/// Every (block, threads) of the tile grid against the scalar oracle.
void expect_attack_matches_oracle(bouncing::AttackSimConfig cfg,
                                  const std::string& label) {
  const auto ref = oracle::run_attack_sim_scalar(cfg);
  for (const std::size_t block : kTileBlocks) {
    for (const unsigned threads : kThreadGrid) {
      cfg.block = block;
      cfg.threads = threads;
      expect_attack_equal(bouncing::run_attack_sim(cfg), ref,
                          label + " " + std::to_string(block) + "/" +
                              std::to_string(threads));
    }
  }
}

TEST(CohortTile, AttackRunsAroundTheTileWidthMatchScalar) {
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      for (const std::size_t runs : tile_counts()) {
        bouncing::AttackSimConfig cfg;
        cfg.runs = runs;
        cfg.honest_validators = 13;
        cfg.max_epochs = 400;
        cfg.beta0 = 0.4;
        cfg.seed = 5;
        cfg.p0 = p0;
        cfg.model = model;
        expect_attack_matches_oracle(
            cfg, oracle_label(p0, model) + " runs=" + std::to_string(runs));
      }
    }
  }
}

TEST(CohortTile, PopulationPathsAroundTheTileWidthMatchScalar) {
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      for (const std::size_t paths : tile_counts()) {
        bouncing::PopulationEnsembleConfig cfg;
        cfg.base.honest_validators = 17;
        cfg.base.epochs = 200;
        cfg.base.beta0 = 1.0 / 3.0;
        cfg.base.p0 = p0;
        cfg.base.model = model;
        cfg.paths = paths;
        const auto ref = oracle::run_population_ensemble_scalar(cfg);
        for (const std::size_t block : kTileBlocks) {
          for (const unsigned threads : kThreadGrid) {
            cfg.block = block;
            cfg.threads = threads;
            const auto r = bouncing::run_population_ensemble(cfg);
            const auto label = oracle_label(p0, model) +
                               " paths=" + std::to_string(paths) + " " +
                               std::to_string(block) + "/" +
                               std::to_string(threads);
            EXPECT_EQ(r.first_exceed_epochs, ref.first_exceed_epochs)
                << label;
            EXPECT_EQ(r.exceed_fraction, ref.exceed_fraction) << label;
            EXPECT_EQ(r.mean_final_beta, ref.mean_final_beta) << label;
          }
        }
      }
    }
  }
}

// One block of runs on one tile: some lanes reach the horizon while
// others end by the lottery and take the block's next run.
TEST(CohortTile, AttackLanesRefillWhileOthersReachTheHorizon) {
  bouncing::AttackSimConfig cfg;
  cfg.runs = 5 * kernel::CohortTile::max_lanes();
  cfg.honest_validators = 9;
  cfg.max_epochs = 60;
  cfg.beta0 = 0.45;
  cfg.seed = 31;
  const auto ref = oracle::run_attack_sim_scalar(cfg);
  const auto at_horizon = std::count(ref.durations.begin(),
                                     ref.durations.end(), cfg.max_epochs);
  EXPECT_GT(at_horizon, 0);
  EXPECT_LT(static_cast<std::size_t>(at_horizon), cfg.runs);
  cfg.block = cfg.runs;
  cfg.threads = 1;
  expect_attack_equal(bouncing::run_attack_sim(cfg), ref, "one block");
}

TEST(CohortTile, ConstantBetaLotteryMatchesScalar) {
  for (const double p0 : kOracleP0) {
    bouncing::AttackSimConfig cfg;
    cfg.runs = 2 * kernel::CohortTile::max_lanes() + 3;
    cfg.honest_validators = 11;
    cfg.max_epochs = 300;
    cfg.beta0 = 0.4;
    cfg.seed = 9;
    cfg.p0 = p0;
    cfg.stake_weighted_lottery = false;
    expect_attack_matches_oracle(cfg, "constant beta0 p0=" +
                                          std::to_string(p0));
  }
}

// On the odd-quotient model the semi-active Byzantine stake is ejected
// at a fixed epoch E (its dynamics draw nothing), so every run the
// lottery keeps alive that long ends with duration E.
TEST(CohortTile, RunsEndedByByzantineEjectionMatchScalar) {
  const auto model = oracle_models()[1];
  kernel::SemiActiveByzantine byz(model);
  std::size_t ejected_at = 0;
  while (!byz.ejected) byz.step(model, ++ejected_at);
  for (const double p0 : kOracleP0) {
    bouncing::AttackSimConfig cfg;
    cfg.runs = 64;
    cfg.honest_validators = 7;
    cfg.max_epochs = 2 * ejected_at;
    cfg.beta0 = 0.5;
    cfg.stake_weighted_lottery = false;
    cfg.seed = 3;
    cfg.p0 = p0;
    cfg.model = model;
    const auto ref = oracle::run_attack_sim_scalar(cfg);
    EXPECT_GT(std::count(ref.durations.begin(), ref.durations.end(),
                         ejected_at),
              0)
        << "p0=" << p0;
    expect_attack_matches_oracle(cfg, "ejection p0=" + std::to_string(p0));
  }
}

// Every tile width: `count` runs in one call play on the narrowest
// tile that holds them, and each run is the scalar oracle's run on its
// seed whatever lanes it shares the tile with.
TEST(CohortTile, PopulationRunsOnEveryTileWidthMatchScalar) {
  const StreamSeeder seeder(41);
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      bouncing::PopulationRunConfig cfg;
      cfg.honest_validators = 12;
      cfg.epochs = 300;
      cfg.beta0 = 1.0 / 3.0;
      cfg.p0 = p0;
      cfg.model = model;
      for (std::size_t count = 1;
           count <= kernel::CohortTile::max_lanes() + 1; ++count) {
        std::vector<std::uint64_t> seeds(count);
        for (std::size_t i = 0; i < count; ++i) seeds[i] = seeder.seed_for(i);
        std::vector<bouncing::PopulationRunResult> runs(count);
        bouncing::run_population_tiles(cfg, seeds.data(), count, runs.data());
        for (std::size_t i = 0; i < count; ++i) {
          cfg.seed = seeds[i];
          const auto ref = oracle::run_population_bouncing_scalar(cfg);
          const auto label = oracle_label(p0, model) + " count=" +
                             std::to_string(count) + " run " +
                             std::to_string(i);
          EXPECT_EQ(runs[i].first_exceed_epoch, ref.first_exceed_epoch)
              << label;
          EXPECT_EQ(runs[i].beta_trajectory, ref.beta_trajectory) << label;
        }
      }
    }
  }
}

// A zero horizon plays no epoch: every run lasts 0 epochs and never
// breaks the threshold, even where beta0 starts above 1/3.
TEST(CohortTile, AttackWithNoEpochsMatchesScalar) {
  bouncing::AttackSimConfig cfg;
  cfg.runs = 2 * kernel::CohortTile::max_lanes() + 3;
  cfg.honest_validators = 5;
  cfg.max_epochs = 0;
  cfg.beta0 = 0.45;
  cfg.seed = 17;
  const auto ref = oracle::run_attack_sim_scalar(cfg);
  EXPECT_EQ(ref.prob_threshold_broken, 0.0);
  expect_attack_matches_oracle(cfg, "max_epochs=0");
}

// The penalty form each quotient takes (docs/MODEL.md): a power of
// two whose reciprocal is a finite double multiplies by it, exactly;
// every other quotient keeps the division.
TEST(PenaltyForm, PowerOfTwoQuotientsTakeTheExactReciprocal) {
  EXPECT_EQ(kernel::penalty_reciprocal(
                analytic::AnalyticConfig::paper().quotient),
            0x1.0p-26);
  EXPECT_EQ(kernel::penalty_reciprocal(
                analytic::AnalyticConfig::stated().quotient),
            0x1.0p-26);
  EXPECT_EQ(kernel::penalty_reciprocal(
                analytic::AnalyticConfig::mainnet().quotient),
            0x1.0p-24);
  EXPECT_EQ(kernel::penalty_reciprocal(1.0), 1.0);
  EXPECT_EQ(kernel::penalty_reciprocal(0.5), 2.0);
  EXPECT_EQ(kernel::penalty_reciprocal(0x1.0p1023), 0x1.0p-1023);
  // Altair's quotient and the oracle grid's second model divide.
  EXPECT_EQ(kernel::penalty_reciprocal(3.0 * 0x1.0p24), 0.0);
  EXPECT_EQ(kernel::penalty_reciprocal(oracle_models()[1].quotient), 0.0);
  // No exact finite reciprocal: these divide too.
  EXPECT_EQ(kernel::penalty_reciprocal(0x1.0p-1024), 0.0);
  EXPECT_EQ(kernel::penalty_reciprocal(0.0), 0.0);
  EXPECT_EQ(kernel::penalty_reciprocal(-0x1.0p26), 0.0);
  EXPECT_EQ(kernel::penalty_reciprocal(
                std::numeric_limits<double>::infinity()),
            0.0);
  EXPECT_EQ(kernel::penalty_reciprocal(0x1.0p26 + 1.0), 0.0);
}

// The scalar oracle's attack run, one lane of it: the lottery draw,
// then each live validator's penalty, draw and update.
struct ScalarCohortRun {
  const analytic::AnalyticConfig& model;
  Rng rng;
  std::vector<double> stake;
  std::vector<double> score;

  ScalarCohortRun(const analytic::AnalyticConfig& m, std::size_t n,
                  std::uint64_t seed)
      : model(m), rng(seed), stake(n, m.initial_stake), score(n, 0.0) {}

  /// One epoch: returns the lottery draw, and `sum` the stake sum as
  /// it stood before the epoch.
  std::uint64_t epoch(double p0, double& sum) {
    const std::uint64_t lottery = rng();
    sum = 0.0;
    for (const double s : stake) sum += s;
    for (std::size_t i = 0; i < stake.size(); ++i) {
      if (stake[i] == 0.0) continue;
      stake[i] -= score[i] * stake[i] / model.quotient;
      if (rng.bernoulli(p0)) {
        score[i] = std::max(score[i] - model.score_active_decrement, 0.0);
      } else {
        score[i] += model.score_bias;
      }
      if (stake[i] <= model.ejection_threshold) stake[i] = 0.0;
    }
    return lottery;
  }
};

// The attack path's penalty on the odd-quotient model, epoch by epoch
// over 600 epochs (each stake is ejected after 250-450 where p0 < 1):
// the run tile's lottery draws and stake sums, and the semi-active
// Byzantine stake until its ejection, against the oracle's division.  Attack runs rarely live long enough for a one-ulp penalty
// to move a duration, so the end-to-end attack tests cannot see it.
TEST(CohortTile, AttackPathPenaltyMatchesScalarOnTheOddQuotient) {
  const auto model = oracle_models()[1];
  constexpr std::size_t kValidators = 6;
  const StreamSeeder seeder(57);
  for (const double p0 : kOracleP0) {
    const std::size_t lanes = kernel::CohortTile::max_lanes();
    kernel::CohortTile tile;
    tile.reset(kValidators, lanes, model);
    std::vector<ScalarCohortRun> ref;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      tile.start(lane, seeder.seed_for(lane));
      ref.emplace_back(model, kValidators, seeder.seed_for(lane));
    }
    std::vector<std::uint64_t> lottery(lanes);
    std::vector<double> sums(lanes);
    for (std::size_t t = 1; t <= 600; ++t) {
      tile.draw(lottery.data());
      tile.epoch(model, p0, sums.data());
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        double sum = 0.0;
        ASSERT_EQ(lottery[lane], ref[lane].epoch(p0, sum))
            << "p0=" << p0 << " lane " << lane << " epoch " << t;
        ASSERT_EQ(sums[lane], sum)
            << "p0=" << p0 << " lane " << lane << " epoch " << t;
      }
    }
  }

  kernel::SemiActiveByzantine byz(model);
  double stake = model.initial_stake;
  double score = 0.0;
  std::size_t t = 0;
  while (!byz.ejected) {
    byz.step(model, ++t);
    stake -= score * stake / model.quotient;
    score = t % 2 == 0 ? std::max(score - model.score_active_decrement, 0.0)
                       : score + model.score_bias;
    if (stake <= model.ejection_threshold) stake = 0.0;
    ASSERT_EQ(byz.stake, stake) << "epoch " << t;
    ASSERT_EQ(byz.score, score) << "epoch " << t;
  }
  EXPECT_EQ(stake, 0.0);
  EXPECT_GT(t, 200u);
}

// compact() moves the kept lanes into the first lanes of a narrower
// tile (or the same width, where the target has one tile width), and
// each goes on drawing and summing exactly as the lane it was, next to
// a tile that was never compacted.
TEST(CohortTile, CompactedLanesPlayOnAsBefore) {
  const std::size_t widest = kernel::CohortTile::max_lanes();
  constexpr std::size_t kValidators = 5;
  const StreamSeeder seeder(61);
  // Keep every other lane, only the last one, and all of them.
  std::vector<std::vector<std::uint8_t>> masks(
      3, std::vector<std::uint8_t>(widest));
  for (std::size_t lane = 0; lane < widest; ++lane) {
    masks[0][lane] = lane % 2;
    masks[1][lane] = lane + 1 == widest ? 1 : 0;
    masks[2][lane] = 1;
  }
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      for (const auto& keep : masks) {
        kernel::CohortTile tile;
        kernel::CohortTile ref;
        tile.reset(kValidators, widest, model);
        ref.reset(kValidators, widest, model);
        for (std::size_t lane = 0; lane < widest; ++lane) {
          tile.start(lane, seeder.seed_for(lane));
          ref.start(lane, seeder.seed_for(lane));
        }
        std::vector<std::uint64_t> draws(widest);
        std::vector<std::uint64_t> ref_draws(widest);
        std::vector<double> sums(widest);
        std::vector<double> ref_sums(widest);
        for (std::size_t t = 0; t < 40; ++t) {
          tile.draw(draws.data());
          ref.draw(ref_draws.data());
          tile.epoch(model, p0, sums.data());
          ref.epoch(model, p0, ref_sums.data());
        }
        std::vector<std::size_t> from;
        for (std::size_t lane = 0; lane < widest; ++lane) {
          if (keep[lane] != 0) from.push_back(lane);
        }
        const std::size_t lanes = kernel::CohortTile::lanes_for(from.size());
        tile.compact(lanes, keep.data());
        const auto label = oracle_label(p0, model) +
                           " kept=" + std::to_string(from.size());
        for (std::size_t t = 0; t < 400; ++t) {
          tile.draw(draws.data());
          ref.draw(ref_draws.data());
          tile.epoch(model, p0, sums.data());
          ref.epoch(model, p0, ref_sums.data());
          for (std::size_t i = 0; i < lanes; ++i) {
            const bool kept = i < from.size();
            ASSERT_EQ(sums[i], kept ? ref_sums[from[i]] : 0.0) << label;
            if (kept) {
              ASSERT_EQ(draws[i], ref_draws[from[i]]) << label;
            }
          }
        }
        tile.stake_sums(sums.data());
        ref.stake_sums(ref_sums.data());
        for (std::size_t i = 0; i < from.size(); ++i) {
          EXPECT_EQ(sums[i], ref_sums[from[i]]) << label;
        }
      }
    }
  }
}

// One block of long-lived runs: after the block's last run starts, its
// lanes drain into narrower tiles (on a target with more than one tile
// width), and every run is the oracle's.  On the paper's model one run
// outlives all others, so the last tile plays one live lane; on the
// odd-quotient model the Byzantine ejection ends many runs at once.
TEST(CohortTile, AttackTileNarrowingAsItsBlockDrainsMatchesScalar) {
  for (const auto& model : oracle_models()) {
    for (const double p0 : kOracleP0) {
      bouncing::AttackSimConfig cfg;
      cfg.runs = 2 * kernel::CohortTile::max_lanes() + 3;
      cfg.honest_validators = 10;
      cfg.max_epochs = 500;
      cfg.beta0 = 0.45;
      cfg.seed = 19;
      cfg.p0 = p0;
      cfg.model = model;
      const auto ref = oracle::run_attack_sim_scalar(cfg);
      if (model.quotient == analytic::AnalyticConfig::paper().quotient) {
        const auto longest =
            std::max_element(ref.durations.begin(), ref.durations.end());
        EXPECT_EQ(std::count(ref.durations.begin(), ref.durations.end(),
                             *longest),
                  1)
            << oracle_label(p0, model);
      }
      cfg.block = cfg.runs;
      for (const unsigned threads : kThreadGrid) {
        cfg.threads = threads;
        expect_attack_equal(bouncing::run_attack_sim(cfg), ref,
                            oracle_label(p0, model) + " threads=" +
                                std::to_string(threads));
      }
    }
  }
}

TEST(CohortTile, PopulationRejectsAnEmptyHonestCohort) {
  bouncing::PopulationRunConfig run;
  run.honest_validators = 0;
  EXPECT_THROW((void)bouncing::run_population_bouncing(run),
               std::invalid_argument);
  bouncing::PopulationEnsembleConfig cfg;
  cfg.base.honest_validators = 0;
  cfg.paths = 3;
  EXPECT_THROW((void)bouncing::run_population_ensemble(cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace leak
