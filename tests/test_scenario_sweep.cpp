// Tests for the sweep engine: axis parsing (list and lo:hi:step grid),
// cartesian expansion, per-cell seed stability, and the determinism
// contract — a sweep cell reproduces a direct run of the same
// parameters bit-identically, sequential or pool-fanned, which is what
// lets `leakctl sweep` regenerate the fig9 / table1 numbers from the
// registry path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/bouncing/montecarlo.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/sweep.hpp"
#include "src/sim/partition_sim.hpp"
#include "src/support/random.hpp"
#include "tests/path_scale.hpp"

namespace leak::scenario {
namespace {

const Scenario& mc_scenario() {
  return *builtin_registry().find("bouncing-mc");
}

TEST(SweepAxisTest, ParsesCommaListsTyped) {
  SweepAxis axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "beta0=0.3,0.33,0.2",
                                &axis)
                   .has_value());
  EXPECT_EQ(axis.param, "beta0");
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(std::get<double>(axis.values[1]), 0.33);

  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "paths=100,200", &axis)
                   .has_value());
  EXPECT_EQ(std::get<std::int64_t>(axis.values[0]), 100);
}

TEST(SweepAxisTest, ParsesNumericGrids) {
  SweepAxis axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "p0=0.3:0.5:0.1",
                                &axis)
                   .has_value());
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_NEAR(std::get<double>(axis.values[0]), 0.3, 1e-12);
  EXPECT_NEAR(std::get<double>(axis.values[2]), 0.5, 1e-12);

  // Integer grid must land on integers.
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(),
                                "epochs=1000:3000:1000", &axis)
                   .has_value());
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(std::get<std::int64_t>(axis.values[2]), 3000);
  // A grid landing off the integers is rejected for int parameters.
  EXPECT_TRUE(parse_sweep_axis(mc_scenario().spec(),
                               "epochs=1000:2000:250.5", &axis)
                  .has_value());
}

TEST(SweepAxisTest, RejectsMalformedAxes) {
  SweepAxis axis;
  for (const char* bad :
       {"nonexistent=1,2", "beta0=", "beta0=0.3,zebra", "beta0=0.5:0.3:0.1",
        "beta0=0.3:0.5:0", "beta0=0.3:0.5", "=1,2", "beta0=0.3,0.9",
        "beta0=0.3:0.4:1e-300"}) {
    EXPECT_TRUE(
        parse_sweep_axis(mc_scenario().spec(), bad, &axis).has_value())
        << bad;
  }
}

TEST(SweepExpandTest, RowMajorLastAxisFastest) {
  ScenarioSpec spec("s", "d");
  spec.add_int("paths", "", 1)
      .add_int("seed", "", 0)
      .add_int("threads", "", 0)
      .add_int("a", "", 0)
      .add_int("b", "", 0);
  SweepAxis a{"a", {std::int64_t{1}, std::int64_t{2}}};
  SweepAxis b{"b", {std::int64_t{10}, std::int64_t{20}, std::int64_t{30}}};
  EXPECT_EQ(sweep_cell_count({a, b}), 6u);
  std::vector<ParamSet> cells;
  for (std::size_t i = 0; i < 6; ++i) {
    cells.push_back(sweep_cell_params(spec.defaults(), {a, b}, i, false));
  }
  EXPECT_EQ(cells[0].get_int("a"), 1);
  EXPECT_EQ(cells[0].get_int("b"), 10);
  EXPECT_EQ(cells[1].get_int("b"), 20);  // last axis varies fastest
  EXPECT_EQ(cells[3].get_int("a"), 2);
  EXPECT_EQ(cells[5].get_int("b"), 30);
}

TEST(SweepRunTest, TwoParamSweepMatchesDirectRunsBitExactly) {
  const auto paths = static_cast<std::int64_t>(env::scaled_count(200));
  auto base = mc_scenario().spec().defaults();
  base.set("paths", paths);
  base.set("epochs", std::int64_t{400});

  SweepAxis beta_axis, epoch_axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "beta0=0.3,0.33",
                                &beta_axis)
                   .has_value());
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "p0=0.4,0.5",
                                &epoch_axis)
                   .has_value());
  const auto sweep = run_sweep(mc_scenario(), base,
                               {beta_axis, epoch_axis}, {});
  ASSERT_EQ(sweep.cells.size(), 4u);

  for (const auto& cell : sweep.cells) {
    const auto direct = mc_scenario().run(cell.params);
    EXPECT_EQ(direct.metrics, cell.result.metrics);
  }
}

TEST(SweepRunTest, ParallelCellsBitIdenticalToSequential) {
  const auto paths = static_cast<std::int64_t>(env::scaled_count(150));
  auto base = mc_scenario().spec().defaults();
  base.set("paths", paths);
  base.set("epochs", std::int64_t{300});
  SweepAxis axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(),
                                "beta0=0.3,0.31,0.32,0.33", &axis)
                   .has_value());
  const auto sequential = run_sweep(mc_scenario(), base, {axis}, {});
  SweepConfig parallel;
  parallel.parallel_cells = true;
  parallel.threads = 4;
  const auto pooled = run_sweep(mc_scenario(), base, {axis}, parallel);
  ASSERT_EQ(sequential.cells.size(), pooled.cells.size());
  for (std::size_t i = 0; i < sequential.cells.size(); ++i) {
    EXPECT_EQ(sequential.cells[i].result.metrics,
              pooled.cells[i].result.metrics)
        << "cell " << i;
  }
  EXPECT_EQ(sequential.to_csv(), pooled.to_csv());
}

TEST(SweepRunTest, VarySeedIsStablePerCell) {
  auto base = mc_scenario().spec().defaults();
  base.set("paths", std::int64_t{50});
  base.set("epochs", std::int64_t{200});
  SweepAxis axis;
  ASSERT_FALSE(
      parse_sweep_axis(mc_scenario().spec(), "p0=0.4,0.5", &axis)
          .has_value());
  SweepConfig config;
  config.vary_seed = true;
  const auto a = run_sweep(mc_scenario(), base, {axis}, config);
  const auto b = run_sweep(mc_scenario(), base, {axis}, config);
  ASSERT_EQ(a.cells.size(), 2u);
  // Stable across invocations...
  EXPECT_EQ(a.cells[0].result.seed, b.cells[0].result.seed);
  EXPECT_EQ(a.cells[1].result.seed, b.cells[1].result.seed);
  // ...distinct across cells, derived from (base seed, index).
  EXPECT_NE(a.cells[0].result.seed, a.cells[1].result.seed);
  const StreamSeeder seeder(
      static_cast<std::uint64_t>(base.get_int("seed")));
  EXPECT_EQ(a.cells[1].result.seed, seeder.seed_for(1) >> 1);
}

// Acceptance: a >= 2-parameter sweep whose grid contains the Figure 9
// configuration reproduces the fig9 Monte Carlo numbers bit-identically
// from the registry path (same seed 99; the path count scales with
// LEAK_TEST_PATH_SCALE but sweep and direct use the same value).
TEST(SweepRunTest, SweepCellReproducesFig9Numbers) {
  const auto paths = static_cast<std::int64_t>(env::scaled_count(1000));
  const std::int64_t fig9_epochs = 4024;
  auto base = mc_scenario().spec().defaults();
  base.set("paths", paths);

  SweepAxis beta_axis, epoch_axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "beta0=0.3,0.33",
                                &beta_axis)
                   .has_value());
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(),
                                "epochs=2012:4024:2012", &epoch_axis)
                   .has_value());
  const auto sweep =
      run_sweep(mc_scenario(), base, {beta_axis, epoch_axis}, {});
  ASSERT_EQ(sweep.cells.size(), 4u);

  // Cell (beta0=0.33, epochs=4024) is the Figure 9 configuration.
  bouncing::McConfig fig9;
  fig9.paths = static_cast<std::size_t>(paths);
  fig9.epochs = static_cast<std::size_t>(fig9_epochs);
  fig9.seed = 99;
  const auto direct = bouncing::run_bouncing_mc(
      fig9, {static_cast<std::size_t>(fig9_epochs)});
  const auto& cell = sweep.cells[3];  // beta0=0.33 x epochs=4024
  ASSERT_EQ(cell.params.get_double("beta0"), 0.33);
  ASSERT_EQ(cell.params.get_int("epochs"), fig9_epochs);
  EXPECT_EQ(cell.result.metric("ejected_fraction"),
            direct.ejected_fraction[0]);
  EXPECT_EQ(cell.result.metric("capped_fraction"),
            direct.capped_fraction[0]);
  EXPECT_EQ(cell.result.metric("prob_beta_exceeds"),
            direct.prob_beta_exceeds[0]);
}

// Acceptance: a sweep containing the Table 1 verification cell (5.1
// robustness row: honest strategy, 400 validators, 5000 epochs, 32
// random splits, seed 2024) reproduces its numbers bit-identically.
TEST(SweepRunTest, SweepCellReproducesTable1VerificationNumbers) {
  const auto trials = static_cast<std::int64_t>(env::scaled_count(32));
  const std::int64_t epochs = env::test_path_scale() < 1.0 ? 2500 : 5000;
  const std::int64_t validators = env::test_path_scale() < 1.0 ? 200 : 400;
  const auto& sc = *builtin_registry().find("partition-trials");
  auto base = sc.spec().defaults();
  base.set("paths", trials);
  base.set("max_epochs", epochs);
  base.set("n_validators", validators);

  SweepAxis strategy_axis, beta_axis;
  ASSERT_FALSE(parse_sweep_axis(sc.spec(), "strategy=honest,slashable",
                                &strategy_axis)
                   .has_value());
  ASSERT_FALSE(
      parse_sweep_axis(sc.spec(), "beta0=0,0.2", &beta_axis).has_value());
  const auto sweep = run_sweep(sc, base, {strategy_axis, beta_axis}, {});
  ASSERT_EQ(sweep.cells.size(), 4u);

  sim::PartitionTrialsConfig cfg;
  cfg.base.n_validators = static_cast<std::uint32_t>(validators);
  cfg.base.strategy = sim::Strategy::kNone;
  cfg.base.max_epochs = static_cast<std::size_t>(epochs);
  cfg.base.trajectory_stride = cfg.base.max_epochs;
  cfg.trials = static_cast<std::size_t>(trials);
  cfg.seed = 2024;
  const auto direct = sim::run_partition_trials(cfg);
  const auto& cell = sweep.cells[0];  // honest x beta0=0
  ASSERT_EQ(cell.params.get_string("strategy"), "honest");
  EXPECT_EQ(cell.result.metric("conflicting_fraction"),
            direct.conflicting_fraction);
  EXPECT_EQ(cell.result.metric("beta_exceeded_fraction"),
            direct.beta_exceeded_fraction);
  EXPECT_EQ(cell.result.metric("mean_conflict_epoch"),
            direct.mean_conflict_epoch);
}

TEST(SweepDocumentTest, AxesAreTypedAndTheTableSurvivesARoundTrip) {
  const auto paths = static_cast<std::int64_t>(env::scaled_count(64));
  auto base = mc_scenario().spec().defaults();
  base.set("paths", paths);
  base.set("epochs", std::int64_t{200});
  SweepAxis beta_axis, paths_axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "beta0=0.3,0.3333333333333333",
                                &beta_axis)
                   .has_value());
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(),
                                "paths=" + std::to_string(paths), &paths_axis)
                   .has_value());
  const auto sweep = run_sweep(mc_scenario(), base, {beta_axis, paths_axis});
  const json::Value doc = sweep.to_json();
  EXPECT_EQ(doc.find("axes")->dump(),
            axes_to_json({beta_axis, paths_axis}).dump());
  std::string error;
  const auto axes = axes_from_json(mc_scenario().spec(), *doc.find("axes"),
                                   &error);
  ASSERT_TRUE(axes.has_value()) << error;
  EXPECT_EQ(std::get<double>((*axes)[0].values[1]), 1.0 / 3.0);

  // Written to disk and read back, the document gives the same table.
  const auto reread = json::Value::parse(doc.dump(2));
  ASSERT_TRUE(reread.has_value());
  EXPECT_EQ(sweep_table(*reread).to_csv(), sweep.to_csv());
  EXPECT_EQ(sweep.to_csv().substr(0, sweep.to_csv().find('\n')),
            "beta0,paths,ejected_fraction,capped_fraction,prob_beta_exceeds,"
            "median_alive_stake");
}

TEST(SweepTableTest, SpellsValuesLikeTheCliAndQuotesForCsv) {
  const auto doc = json::Value::parse(R"({"scenario": "s", "axes": [
      {"param": "note", "values": ["a,b"]}, {"param": "k", "values": [2]},
      {"param": "on", "values": [true]}],
    "cells": [{"params": {"note": "a,b", "k": 2, "on": true},
               "metrics": {"x": 1.0, "y": 1e-9}},
              {"params": {"note": "c", "k": 3, "on": false},
               "metrics": {"x": 0.25}}]})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(sweep_table(*doc).to_csv(),
            "note,k,on,x,y\n\"a,b\",2,true,1,1e-09\nc,3,false,0.25,?\n");
}

TEST(SweepTableTest, RejectsADocumentOfAnotherShape) {
  for (const char* text :
       {R"({"axes": []})", R"({"axes": [], "cells": [{"params": {}}]})",
        R"({"axes": [{"values": [1]}], "cells": []})",
        R"({"axes": [], "cells": [{"params": 1, "metrics": {}}]})"}) {
    const auto doc = json::Value::parse(text);
    ASSERT_TRUE(doc.has_value()) << text;
    try {
      (void)sweep_table(*doc);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("sweep", 0), 0u) << e.what();
    }
  }
}

TEST(RunCellsTest, PinsCellsToOneThreadOnlyOnAPool) {
  auto base = mc_scenario().spec().defaults();
  base.set("paths", std::int64_t{8});
  base.set("epochs", std::int64_t{50});
  base.set("threads", std::int64_t{3});
  const std::vector<ParamSet> two = {base, base};
  // One pool thread: cells keep their own inner parallelism.
  for (const auto& r : run_cells(mc_scenario(), two, 1)) {
    EXPECT_EQ(r.params.get_int("threads"), 3);
  }
  // A pool of two: each of two or more cells runs on one inner thread.
  for (const auto& r : run_cells(mc_scenario(), two, 2)) {
    EXPECT_EQ(r.params.get_int("threads"), 1);
  }
  // A lone cell is never pinned.
  const auto lone = run_cells(mc_scenario(), {base}, 2);
  ASSERT_EQ(lone.size(), 1u);
  EXPECT_EQ(lone[0].params.get_int("threads"), 3);
  EXPECT_EQ(lone[0].metrics, run_cells(mc_scenario(), two, 2)[0].metrics);
}

TEST(SweepRunTest, SweepJsonAndCsvArtifactsAreWellFormed) {
  const auto& sc = *builtin_registry().find("duty-cycle");
  auto base = sc.spec().defaults();
  SweepAxis k_axis, t_axis;
  ASSERT_FALSE(parse_sweep_axis(sc.spec(), "k_max=2,3", &k_axis).has_value());
  ASSERT_FALSE(parse_sweep_axis(sc.spec(), "t_eval=500:1500:500", &t_axis)
                   .has_value());
  const auto sweep = run_sweep(sc, base, {k_axis, t_axis}, {});
  ASSERT_EQ(sweep.cells.size(), 6u);

  const auto parsed = json::Value::parse(sweep.to_json().dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("cells")->size(), 6u);
  EXPECT_EQ(parsed->find("scenario")->as_string(), "duty-cycle");

  // A header line led by the first swept parameter, then one row per
  // cell.
  const std::string csv = sweep.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);
  EXPECT_EQ(csv.substr(0, csv.find(',')), "k_max");
}

// sweep_cell_params is the canonical cell identity shared with the
// serve job ledger: index i must reproduce run_sweep's cell i exactly,
// with and without vary_seed.
TEST(SweepCellParamsTest, MatchesRunSweepCellsExactly) {
  auto base = mc_scenario().spec().defaults();
  base.set("paths", std::int64_t{20});
  base.set("epochs", std::int64_t{100});
  SweepAxis beta_axis, p0_axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "beta0=0.3,0.33",
                                &beta_axis)
                   .has_value());
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "p0=0.4,0.5,0.6",
                                &p0_axis)
                   .has_value());
  for (const bool vary_seed : {false, true}) {
    SweepConfig config;
    config.vary_seed = vary_seed;
    const auto sweep =
        run_sweep(mc_scenario(), base, {beta_axis, p0_axis}, config);
    ASSERT_EQ(sweep.cells.size(), 6u);
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      EXPECT_EQ(sweep_cell_params(base, {beta_axis, p0_axis}, i, vary_seed)
                    .to_json()
                    .dump(),
                sweep.cells[i].params.to_json().dump())
          << "cell " << i << " vary_seed " << vary_seed;
    }
  }
}

TEST(SweepCellParamsTest, SeedAxisWinsOverVarySeed) {
  auto base = mc_scenario().spec().defaults();
  SweepAxis seed_axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "seed=7,8,9",
                                &seed_axis)
                   .has_value());
  const auto cell =
      sweep_cell_params(base, {seed_axis}, 1, /*vary_seed=*/true);
  EXPECT_EQ(cell.get_int("seed"), 8);
}

TEST(SweepAxesJsonTest, RoundTripsTypedValues) {
  SweepAxis beta_axis, paths_axis;
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "beta0=0.3,0.33",
                                &beta_axis)
                   .has_value());
  ASSERT_FALSE(parse_sweep_axis(mc_scenario().spec(), "paths=50,100",
                                &paths_axis)
                   .has_value());
  const std::vector<SweepAxis> axes = {beta_axis, paths_axis};
  const json::Value doc = axes_to_json(axes);
  std::string error;
  const auto back = axes_from_json(mc_scenario().spec(), doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].param, "beta0");
  EXPECT_EQ(std::get<double>((*back)[0].values[1]), 0.33);
  EXPECT_EQ(std::get<std::int64_t>((*back)[1].values[0]), 50);
  // Serializing the parsed form reproduces the document exactly.
  EXPECT_EQ(axes_to_json(*back).dump(), doc.dump());
}

TEST(SweepAxesJsonTest, RejectsUnknownParamsAndBadValues) {
  std::string error;
  const auto unknown = json::Value::parse(
      R"([{"param": "zebra", "values": [1]}])");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_FALSE(
      axes_from_json(mc_scenario().spec(), *unknown, &error).has_value());
  EXPECT_NE(error.find("zebra"), std::string::npos);
  EXPECT_NE(error.find("not a parameter"), std::string::npos);

  for (const char* bad : {
           R"([{"param": "beta0", "values": []}])",        // empty axis
           R"([{"param": "beta0", "values": [0.9]}])",     // out of range
           R"([{"param": "beta0", "values": [true]}])",    // ill-typed
           R"([{"param": "beta0", "values": [0.3], "x": 1}])",  // junk key
           R"([{"param": "beta0"}])",                      // no values
           R"({"param": "beta0", "values": [0.3]})",       // not an array
       }) {
    const auto doc = json::Value::parse(bad);
    ASSERT_TRUE(doc.has_value()) << bad;
    EXPECT_FALSE(
        axes_from_json(mc_scenario().spec(), *doc, &error).has_value())
        << bad;
  }
}

TEST(SweepRunTest, InvalidBaseOrAxisThrows) {
  auto base = mc_scenario().spec().defaults();
  base.set("beta0", 0.9);  // out of range
  SweepAxis axis{"p0", {0.4, 0.5}};
  EXPECT_THROW((void)run_sweep(mc_scenario(), base, {axis}, {}),
               std::invalid_argument);
  base.set("beta0", 0.33);
  SweepAxis empty{"p0", {}};
  EXPECT_THROW((void)run_sweep(mc_scenario(), base, {empty}, {}),
               std::invalid_argument);
  SweepAxis unknown{"zebra", {0.1}};
  EXPECT_THROW((void)run_sweep(mc_scenario(), base, {unknown}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace leak::scenario
