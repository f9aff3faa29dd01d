// Tests for the scenario registry: the builtin catalog, the uniform
// parameter contract, metadata stamping, and — the core guarantee —
// that a registry run is bit-identical to calling the underlying
// driver directly with the same configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/analytic/duty_cycle.hpp"
#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/scenario/registry.hpp"
#include "src/sim/partition_sim.hpp"
#include "src/sim/slot_sim.hpp"
#include "src/support/table.hpp"
#include "tests/oracles/yardsticks.hpp"
#include "tests/path_scale.hpp"

namespace leak::scenario {
namespace {

TEST(ScenarioRegistryTest, BuiltinCatalogIsComplete) {
  const auto& r = builtin_registry();
  for (const char* name :
       {"bouncing-mc", "attack-lifetime", "population-ensemble",
        "partition-trials", "duty-cycle", "recovery", "slot-protocol",
        "table1", "balancing-attack", "semiactive-sweep",
        "multi-partition-recovery"}) {
    EXPECT_NE(r.find(name), nullptr) << name;
  }
  EXPECT_EQ(r.find("nonexistent"), nullptr);
  EXPECT_GE(r.all().size(), 11u);
}

TEST(ScenarioRegistryTest, EveryScenarioHonorsTheUniformContract) {
  for (const auto* s : builtin_registry().all()) {
    for (const char* p : {"paths", "seed", "threads", "block"}) {
      const ParamSpec* spec = s->spec().find(p);
      ASSERT_NE(spec, nullptr) << s->spec().name() << " lacks " << p;
      EXPECT_EQ(spec->type, ParamType::kInt) << s->spec().name();
    }
  }
}

TEST(ScenarioRegistryTest, AddRejectsDuplicatesAndContractViolations) {
  ScenarioRegistry r;
  ScenarioSpec ok("s1", "d");
  ok.add_int("paths", "", 1)
      .add_int("seed", "", 0)
      .add_int("threads", "", 0)
      .add_int("block", "", 0);
  r.add(ok, [](const ParamSet&, ScenarioResult*) {});
  EXPECT_THROW(r.add(ok, [](const ParamSet&, ScenarioResult*) {}),
               std::invalid_argument);

  ScenarioSpec no_paths("s2", "d");
  no_paths.add_int("seed", "", 0).add_int("threads", "", 0).add_int(
      "block", "", 0);
  EXPECT_THROW(
      r.add(std::move(no_paths), [](const ParamSet&, ScenarioResult*) {}),
      std::invalid_argument);

  ScenarioSpec no_block("s3", "d");
  no_block.add_int("paths", "", 1).add_int("seed", "", 0).add_int(
      "threads", "", 0);
  EXPECT_THROW(
      r.add(std::move(no_block), [](const ParamSet&, ScenarioResult*) {}),
      std::invalid_argument);
}

TEST(ScenarioRegistryTest, RunValidatesParamsAndStampsMetadata) {
  const auto& sc = *builtin_registry().find("duty-cycle");
  auto params = sc.spec().defaults();
  params.set("k_max", std::int64_t{4});
  const auto res = sc.run(params);
  EXPECT_EQ(res.scenario, "duty-cycle");
  EXPECT_GE(res.threads, 1u);
  EXPECT_FALSE(res.git_describe.empty());
  EXPECT_GE(res.wall_ms, 0.0);
  EXPECT_EQ(res.params.get_int("k_max"), 4);
  ASSERT_TRUE(res.trials.has_value());
  EXPECT_EQ(res.trials->rows(), 4u);

  params.set("k_max", std::int64_t{-2});  // below min
  EXPECT_THROW((void)sc.run(params), std::invalid_argument);
  auto unknown = sc.spec().defaults();
  unknown.set("bogus", std::int64_t{1});
  EXPECT_THROW((void)sc.run(unknown), std::invalid_argument);
}

TEST(ScenarioRegistryTest, PopulationEnsembleRejectsHorizonBelowBetaStride) {
  const auto& sc = *builtin_registry().find("population-ensemble");
  auto params = sc.spec().defaults();
  params.set("paths", std::int64_t{2});
  params.set("honest_validators", std::int64_t{10});
  const auto stride = static_cast<std::int64_t>(bouncing::kBetaStride);
  params.set("epochs", stride - 1);
  EXPECT_TRUE(sc.spec().validate(params).has_value());
  EXPECT_THROW((void)sc.run(params), std::invalid_argument);
  params.set("epochs", stride);
  EXPECT_FALSE(sc.spec().validate(params).has_value());
  EXPECT_GT(sc.run(params).metric("mean_final_beta"), 0.0);
}

TEST(ScenarioRegistryTest, BouncingMcMatchesDriverBitExactly) {
  const auto paths = static_cast<std::int64_t>(env::scaled_count(400));
  const auto& sc = *builtin_registry().find("bouncing-mc");
  auto params = sc.spec().defaults();
  params.set("paths", paths);
  params.set("epochs", std::int64_t{600});
  params.set("snapshots", std::string("300,600"));
  params.set("seed", std::int64_t{99});
  const auto res = sc.run(params);

  bouncing::McConfig cfg;
  cfg.paths = static_cast<std::size_t>(paths);
  cfg.epochs = 600;
  cfg.seed = 99;
  const auto direct = bouncing::run_bouncing_mc(cfg, {300, 600});
  ASSERT_TRUE(res.trials.has_value());
  ASSERT_EQ(res.trials->rows(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(res.trials->cell(k, 1),
              Table::fmt_exact(direct.ejected_fraction[k]));
    EXPECT_EQ(res.trials->cell(k, 2),
              Table::fmt_exact(direct.capped_fraction[k]));
    EXPECT_EQ(res.trials->cell(k, 3),
              Table::fmt_exact(direct.prob_beta_exceeds[k]));
  }
  EXPECT_EQ(res.metric("ejected_fraction"), direct.ejected_fraction[1]);
  EXPECT_EQ(res.metric("prob_beta_exceeds"), direct.prob_beta_exceeds[1]);
}

TEST(ScenarioRegistryTest, AttackLifetimeMatchesDriverBitExactly) {
  const auto runs = static_cast<std::int64_t>(env::scaled_count(200));
  const auto& sc = *builtin_registry().find("attack-lifetime");
  auto params = sc.spec().defaults();
  params.set("paths", runs);
  params.set("max_epochs", std::int64_t{2000});
  const auto res = sc.run(params);

  bouncing::AttackSimConfig cfg;
  cfg.runs = static_cast<std::size_t>(runs);
  cfg.max_epochs = 2000;
  const auto direct = bouncing::run_attack_sim(cfg);
  EXPECT_EQ(res.metric("prob_threshold_broken"),
            direct.prob_threshold_broken);
  EXPECT_EQ(res.metric("mean_duration"), direct.mean_duration);
  EXPECT_EQ(res.metric("median_duration"), direct.median_duration);
  EXPECT_EQ(res.metric("p99_duration"), direct.p99_duration);
  ASSERT_TRUE(res.trials.has_value());
  ASSERT_EQ(res.trials->rows(), direct.durations.size());
  for (std::size_t i = 0; i < direct.durations.size(); ++i) {
    EXPECT_EQ(res.trials->cell(i, 1), std::to_string(direct.durations[i]));
  }
}

TEST(ScenarioRegistryTest, PartitionTrialsMatchesDriverBitExactly) {
  const auto trials = static_cast<std::int64_t>(env::scaled_count(8));
  const auto& sc = *builtin_registry().find("partition-trials");
  auto params = sc.spec().defaults();
  params.set("paths", trials);
  params.set("n_validators", std::int64_t{120});
  params.set("max_epochs", std::int64_t{1500});
  const auto res = sc.run(params);

  sim::PartitionTrialsConfig cfg;
  cfg.base.n_validators = 120;
  cfg.base.strategy = sim::Strategy::kNone;
  cfg.base.max_epochs = 1500;
  cfg.base.trajectory_stride = 1500;
  cfg.trials = static_cast<std::size_t>(trials);
  cfg.seed = 2024;
  const auto direct = sim::run_partition_trials(cfg);
  EXPECT_EQ(res.metric("conflicting_fraction"), direct.conflicting_fraction);
  EXPECT_EQ(res.metric("beta_exceeded_fraction"),
            direct.beta_exceeded_fraction);
  EXPECT_EQ(res.metric("mean_conflict_epoch"), direct.mean_conflict_epoch);
}

TEST(ScenarioRegistryTest, MultiPartitionRecoveryDegeneratesToPartitionTrials) {
  // The acceptance contract of the k-branch generalization: with
  // branches = 2, heal disabled and stagger 0, multi-partition-recovery
  // is bit-identical to the legacy partition-trials driver — same RNG
  // draws, same core, same metrics and per-trial outcomes.
  const auto trials = static_cast<std::int64_t>(env::scaled_count(8));
  const auto& legacy = *builtin_registry().find("partition-trials");
  auto lp = legacy.spec().defaults();
  lp.set("paths", trials);
  lp.set("n_validators", std::int64_t{120});
  lp.set("max_epochs", std::int64_t{1500});
  const auto want = legacy.run(lp);

  const auto& multi = *builtin_registry().find("multi-partition-recovery");
  auto mp = multi.spec().defaults();
  mp.set("paths", trials);
  mp.set("n_validators", std::int64_t{120});
  mp.set("max_epochs", std::int64_t{1500});
  mp.set("branches", std::int64_t{2});
  mp.set("heal_epoch", std::int64_t{0});
  mp.set("heal_stagger", std::int64_t{0});
  const auto got = multi.run(mp);

  for (const char* metric :
       {"conflicting_fraction", "beta_exceeded_fraction",
        "mean_conflict_epoch"}) {
    EXPECT_EQ(want.metric(metric), got.metric(metric)) << metric;
  }
  // Healing disabled: the recovery tail is identically zero.
  EXPECT_EQ(got.metric("recovered_fraction"), 0.0);
  EXPECT_EQ(got.metric("mean_residual_loss_eth"), 0.0);
  // Per-trial conflict epochs and beta peaks match row by row.
  ASSERT_TRUE(want.trials && got.trials);
  ASSERT_EQ(want.trials->rows(), got.trials->rows());
  for (std::size_t i = 0; i < want.trials->rows(); ++i) {
    EXPECT_EQ(want.trials->cell(i, 1), got.trials->cell(i, 1)) << i;
    EXPECT_EQ(want.trials->cell(i, 2), got.trials->cell(i, 2)) << i;
  }
}

TEST(ScenarioRegistryTest, SemiactiveSweepMatchesDutyCycleClosedForms) {
  const auto& sc = *builtin_registry().find("semiactive-sweep");
  auto params = sc.spec().defaults();
  params.set("paths", std::int64_t{32});
  params.set("epochs", std::int64_t{512});
  params.set("branches", std::int64_t{3});
  const auto res = sc.run(params);
  const auto cfg = analytic::AnalyticConfig::paper();
  EXPECT_EQ(res.metric("beta_max"),
            analytic::multibranch_beta_max(3, 0.33, cfg));
  EXPECT_EQ(res.metric("supermajority_recovery_epoch"),
            analytic::multibranch_supermajority_epoch(3, 0.33, cfg));
  EXPECT_EQ(res.metric("beta0_lower_bound"),
            analytic::multibranch_beta0_lower_bound(3, cfg));
}

TEST(ScenarioRegistryTest, ResultsAreThreadCountInvariant) {
  const auto& sc = *builtin_registry().find("bouncing-mc");
  auto params = sc.spec().defaults();
  params.set("paths", static_cast<std::int64_t>(env::scaled_count(300)));
  params.set("epochs", std::int64_t{400});
  params.set("threads", std::int64_t{1});
  const auto base = sc.run(params);
  for (const std::int64_t threads : {2, 4}) {
    params.set("threads", threads);
    const auto r = sc.run(params);
    EXPECT_EQ(r.metrics, base.metrics) << threads << " threads";
    ASSERT_TRUE(r.trials.has_value());
    EXPECT_EQ(r.trials->to_csv(), base.trials->to_csv())
        << threads << " threads";
  }
}

TEST(ScenarioRegistryTest, SlotProtocolRunsTrialsDeterministically) {
  const auto& sc = *builtin_registry().find("slot-protocol");
  auto params = sc.spec().defaults();
  params.set("paths", std::int64_t{2});
  params.set("n_honest", std::int64_t{12});
  params.set("epochs", std::int64_t{4});
  const auto a = sc.run(params);
  const auto b = sc.run(params);
  EXPECT_EQ(a.metrics, b.metrics);
  ASSERT_TRUE(a.trials.has_value());
  EXPECT_EQ(a.trials->rows(), 2u);
  EXPECT_EQ(a.trials->to_csv(), b.trials->to_csv());
  // With everyone honest and no partition, finality advances.
  EXPECT_GT(a.metric("mean_finalized_epoch"), 0.0);
  EXPECT_EQ(a.metric("mean_safety_violations"), 0.0);
}

/// Small defaults for the three slot-level scenarios: a few validators
/// over two epochs, so the tests below stay cheap (also under TSan).
ParamSet small_slot_params(const Scenario& sc) {
  auto params = sc.spec().defaults();
  params.set("n_honest", std::int64_t{8});
  params.set("epochs", std::int64_t{2});
  if (sc.spec().name() == "balancing-attack") {
    params.set("n_byzantine", std::int64_t{2});
  }
  return params;
}

TEST(ScenarioRegistryTest, SlotScenariosRejectDeltaBelowMinimumDelay) {
  // The network's jitter floor is sim::kMinDelay (0.05 s): a smaller
  // delay bound is a spec error that names the param, not a Network
  // failure mid-run.  The floor itself is a valid delay bound.
  for (const char* name : {"slot-protocol", "balancing-attack",
                           "flaky-network"}) {
    SCOPED_TRACE(name);
    const auto& sc = *builtin_registry().find(name);
    auto params = small_slot_params(sc);
    params.set("paths", std::int64_t{1});
    for (const double below : {0.049, std::nextafter(sim::kMinDelay, 0.0)}) {
      params.set("delta", below);
      EXPECT_TRUE(sc.spec().validate(params).has_value()) << below;
      try {
        (void)sc.run(params);
        ADD_FAILURE() << "delta " << below << " was accepted";
      } catch (const std::invalid_argument& e) {
        // The spec names the param in quotes; the Network's own check
        // only mentions delta in passing.
        EXPECT_NE(std::string(e.what()).find("\"delta\""),
                  std::string::npos)
            << e.what();
      }
    }
    params.set("delta", sim::kMinDelay);
    EXPECT_FALSE(sc.spec().validate(params).has_value());
    const auto r = sc.run(params);
    ASSERT_TRUE(r.trials.has_value());
    EXPECT_EQ(r.trials->rows(), 1u);
  }
}

TEST(ScenarioRegistryTest, SlotScenariosAreThreadCountInvariant) {
  // block 0 runs one trial per block, so a few trials run concurrently;
  // results must match one thread and an explicit block size exactly.
  for (const char* name : {"slot-protocol", "balancing-attack",
                           "flaky-network"}) {
    SCOPED_TRACE(name);
    const auto& sc = *builtin_registry().find(name);
    auto params = small_slot_params(sc);
    params.set("paths", std::int64_t{3});
    params.set("threads", std::int64_t{1});
    const auto base = sc.run(params);
    ASSERT_TRUE(base.trials.has_value());
    for (const std::int64_t block : {0, 2}) {
      params.set("threads", std::int64_t{3});
      params.set("block", block);
      const auto r = sc.run(params);
      EXPECT_EQ(r.metrics, base.metrics) << "block " << block;
      ASSERT_TRUE(r.trials.has_value());
      EXPECT_EQ(r.trials->to_csv(), base.trials->to_csv()) << "block " << block;
    }
  }
}

TEST(ScenarioRegistryTest, Table1ScenarioExposesWitnesses) {
  const auto& sc = *builtin_registry().find("table1");
  const auto res = sc.run(sc.spec().defaults());
  ASSERT_TRUE(res.trials.has_value());
  EXPECT_EQ(res.trials->rows(), 5u);
  for (const char* id : {"5.1", "5.2.1", "5.2.2", "5.2.3", "5.3"}) {
    EXPECT_TRUE(res.has_metric(std::string("witness_") + id)) << id;
  }
}

TEST(ScenarioRegistryTest, ResultJsonRoundTripsThroughParser) {
  const auto& sc = *builtin_registry().find("recovery");
  const auto res = sc.run(sc.spec().defaults());
  const auto doc = res.to_json();
  const auto parsed = json::Value::parse(doc.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(oracle::json_equal(*parsed, doc));
  EXPECT_EQ(parsed->find("scenario")->as_string(), "recovery");
  ASSERT_NE(parsed->find("metrics"), nullptr);
  EXPECT_GT(parsed->find("metrics")->find("recovery_epochs")->as_double(),
            0.0);
  // Params round-trip through the spec's JSON reader too.
  std::string error;
  const auto back = sc.spec().params_from_json(*parsed->find("params"),
                                               &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json().dump(), res.params.to_json().dump());
}

}  // namespace
}  // namespace leak::scenario
