// Per-driver batched-vs-scalar speedup pairs.  Each Monte Carlo driver
// (bouncing, attack, population, partition) is timed twice on the same
// workload, single-threaded: once through its pre-rollout scalar
// oracle (tests/oracles/), once through the production SoA batched
// kernel.  The two members of a pair set identical items, so
// items_per_second ratios are the speedup directly —
// tools/check_bench_speedup.py gates each driver's ratio in CI.
// Bit-identity of the pair members is enforced separately by
// tests/test_montecarlo_batch.cpp; this binary only measures.
// BM_BatchPathsAdvance times the stake kernel's register tile alone,
// BM_CohortTileEpoch the attack and population drivers' cohort run tile,
// each at two penalty quotients: the paper's 2^26, which the kernels
// take as a multiply by its exact reciprocal, and Altair's 3 * 2^24,
// which they divide by.
#include "bench/bench_common.hpp"

#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/kernel/cohort.hpp"
#include "src/kernel/stake_batch.hpp"
#include "src/sim/partition_sim.hpp"
#include "tests/oracles/scalar_oracles.hpp"

namespace {

using namespace leak;

// --- shared per-driver workloads ---------------------------------------
// One fixed config per driver, used by both pair members so the timing
// ratio is the kernel speedup and nothing else.

bouncing::McConfig bouncing_workload() {
  bouncing::McConfig mc;
  mc.paths = 2000;
  mc.epochs = 2000;
  mc.threads = 1;
  return mc;
}
constexpr std::int64_t kBouncingItems = 2000 * 2000;  // path-epochs

bouncing::AttackSimConfig attack_workload() {
  bouncing::AttackSimConfig cfg;
  cfg.beta0 = 0.33;
  cfg.runs = 300;
  cfg.honest_validators = 60;
  cfg.seed = 11;
  cfg.threads = 1;
  return cfg;
}
constexpr std::int64_t kAttackItems = 300 * 60;  // run-validators

bouncing::PopulationEnsembleConfig population_workload() {
  bouncing::PopulationEnsembleConfig cfg;
  cfg.base.honest_validators = 200;
  cfg.base.epochs = 1000;
  cfg.base.beta0 = 1.0 / 3.0;
  cfg.paths = 8;
  cfg.threads = 1;
  return cfg;
}
constexpr std::int64_t kPopulationItems = 8 * 200 * 1000;  // validator-epochs

sim::PartitionTrialsConfig partition_workload() {
  sim::PartitionTrialsConfig cfg;
  cfg.base.n_validators = 200;
  cfg.base.beta0 = 0.2;
  cfg.base.strategy = sim::Strategy::kSemiActiveFinalize;
  cfg.base.max_epochs = 1200;
  cfg.base.trajectory_stride = 1200;
  cfg.trials = 4;
  cfg.threads = 1;
  return cfg;
}
constexpr std::int64_t kPartitionItems = 4 * 200;  // trial-validators

void report() {
  bench::print_header(
      "Per-driver batched-vs-scalar speedup pairs (single thread)");
  Table t({"driver", "scalar benchmark", "batched benchmark", "workload"});
  t.add_row({"bouncing", "BM_BouncingScalarRef", "BM_BouncingBatch",
             "2000 paths x 2000 epochs"});
  t.add_row({"attack", "BM_AttackScalarRef", "BM_AttackBatch",
             "300 runs, 60 validators"});
  t.add_row({"population", "BM_PopulationScalarRef", "BM_PopulationBatch",
             "8 paths, 200 validators x 1000 epochs"});
  t.add_row({"partition", "BM_PartitionScalarRef", "BM_PartitionBatch",
             "4 trials, 200 validators, 2 branches"});
  bench::emit(t, "kernel_speedup_pairs.csv");
  std::printf(
      "gate: tools/check_bench_speedup.py requires batched >= 1.1x scalar\n"
      "items_per_second for every driver (10x for partition, whose\n"
      "class-aggregated core the per-validator oracle cannot approach;\n"
      "each pair shares its workload).\n");
}

// --- bouncing ----------------------------------------------------------

void BM_BouncingScalarRef(benchmark::State& state) {
  const auto mc = bouncing_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::run_bouncing_mc_scalar(mc, {2000}));
  }
  state.SetItemsProcessed(state.iterations() * kBouncingItems);
}
BENCHMARK(BM_BouncingScalarRef)->Unit(benchmark::kMillisecond);

void BM_BouncingBatch(benchmark::State& state) {
  const auto mc = bouncing_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bouncing::run_bouncing_mc(mc, {2000}));
  }
  state.SetItemsProcessed(state.iterations() * kBouncingItems);
}
BENCHMARK(BM_BouncingBatch)->Unit(benchmark::kMillisecond);

// The penalty quotients the kernel benchmarks take as their second
// argument.
constexpr std::int64_t kPowerOfTwoQuotient = std::int64_t{1} << 26;
constexpr std::int64_t kAltairQuotient = std::int64_t{3} << 24;

// The paper's model at the benchmark's second argument as its quotient.
analytic::AnalyticConfig model_at_quotient(const benchmark::State& state) {
  auto model = analytic::AnalyticConfig::paper();
  model.quotient = static_cast<double>(state.range(1));
  return model;
}

// 64 lanes (one default runner block) at p0 0.5, advanced `epochs`
// epochs per call.  Items are lane-epochs, so time per item is the
// stake kernel's ns per lane-epoch: /1 loads and stores each tile every
// epoch, /4024 once per 4024 epochs.
void BM_BatchPathsAdvance(benchmark::State& state) {
  const auto model = model_at_quotient(state);
  const auto epochs = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLanes = 64;
  kernel::BatchPaths paths;
  paths.reset(model, StreamSeeder(3), 0, kLanes);
  for (auto _ : state) {
    paths.advance(model, 0.5, epochs);
    benchmark::DoNotOptimize(paths.stake().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes * epochs));
  state.counters["tile_lanes"] =
      static_cast<double>(kernel::BatchPaths::tile_lanes());
}
BENCHMARK(BM_BatchPathsAdvance)
    ->ArgsProduct({{1, 4024}, {kPowerOfTwoQuotient, kAltairQuotient}});

// One cohort tile of runs with 200 honest validators each (the
// drivers' default) at p0 0.5, one epoch per call, on the narrowest
// tile that holds the argument's runs: /1 the narrowest, /64 the
// widest.  Items are one validator of one run for one epoch, so time
// per item is the cohort kernel's ns per lane-epoch, comparable with
// BM_BatchPathsAdvance.
void BM_CohortTileEpoch(benchmark::State& state) {
  const auto model = model_at_quotient(state);
  constexpr std::size_t kValidators = 200;
  const std::size_t lanes =
      kernel::CohortTile::lanes_for(static_cast<std::size_t>(state.range(0)));
  kernel::CohortTile tile;
  tile.reset(kValidators, lanes, model);
  const StreamSeeder seeder(3);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    tile.start(lane, seeder.seed_for(lane));
  }
  std::vector<double> sums(lanes);
  for (auto _ : state) {
    tile.epoch(model, 0.5, sums.data());
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes * kValidators));
  state.counters["tile_lanes"] = static_cast<double>(lanes);
}
BENCHMARK(BM_CohortTileEpoch)
    ->ArgsProduct({{1, 64}, {kPowerOfTwoQuotient, kAltairQuotient}});

// --- attack ------------------------------------------------------------

void BM_AttackScalarRef(benchmark::State& state) {
  const auto cfg = attack_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::run_attack_sim_scalar(cfg));
  }
  state.SetItemsProcessed(state.iterations() * kAttackItems);
}
BENCHMARK(BM_AttackScalarRef)->Unit(benchmark::kMillisecond);

void BM_AttackBatch(benchmark::State& state) {
  const auto cfg = attack_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bouncing::run_attack_sim(cfg));
  }
  state.SetItemsProcessed(state.iterations() * kAttackItems);
}
BENCHMARK(BM_AttackBatch)->Unit(benchmark::kMillisecond);

// --- population --------------------------------------------------------

void BM_PopulationScalarRef(benchmark::State& state) {
  const auto cfg = population_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::run_population_ensemble_scalar(cfg));
  }
  state.SetItemsProcessed(state.iterations() * kPopulationItems);
}
BENCHMARK(BM_PopulationScalarRef)->Unit(benchmark::kMillisecond);

void BM_PopulationBatch(benchmark::State& state) {
  const auto cfg = population_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bouncing::run_population_ensemble(cfg));
  }
  state.SetItemsProcessed(state.iterations() * kPopulationItems);
}
BENCHMARK(BM_PopulationBatch)->Unit(benchmark::kMillisecond);

// --- partition ---------------------------------------------------------

void BM_PartitionScalarRef(benchmark::State& state) {
  const auto cfg = partition_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::run_partition_trials_scalar(cfg));
  }
  state.SetItemsProcessed(state.iterations() * kPartitionItems);
}
BENCHMARK(BM_PartitionScalarRef)->Unit(benchmark::kMillisecond);

void BM_PartitionBatch(benchmark::State& state) {
  const auto cfg = partition_workload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_partition_trials(cfg));
  }
  state.SetItemsProcessed(state.iterations() * kPartitionItems);
}
BENCHMARK(BM_PartitionBatch)->Unit(benchmark::kMillisecond);

}  // namespace

LEAK_BENCH_MAIN(report)
