// Extension bench — the multi-branch rotation attack: generalizing the
// paper's two-branch semi-active strategy (Section 5.2) to an adversary
// rotating over m branches with duty cycle 1/m.  Reports how the
// minimum Byzantine stake to cross 1/3 and the time to conflicting
// finalization vary with m, and the post-leak recovery tail
// (Figure 3's "ratio still increases after 2/3" effect) per branch
// split.
#include "bench/bench_common.hpp"

#include "src/analytic/duty_cycle.hpp"
#include "src/analytic/recovery.hpp"
#include "src/analytic/solvers.hpp"
#include "src/faults/driver.hpp"
#include "src/scenario/registry.hpp"
#include "src/sim/partition_sim.hpp"

namespace {

using namespace leak;

void report() {
  const auto cfg = analytic::AnalyticConfig::paper();
  bench::print_header(
      "Extension: m-branch rotation attack (duty cycle 1/m per branch)");
  Table t({"branches", "duty slope", "byz ejection", "min beta0 for 1/3",
           "supermajority epoch (b0=0.25)"});
  for (unsigned m = 2; m <= 8; ++m) {
    t.add_row({std::to_string(m),
               Table::fmt(analytic::duty_cycle_slope(m, cfg), 3),
               Table::fmt(analytic::duty_cycle_ejection_epoch(m, cfg), 0),
               Table::fmt(analytic::multibranch_beta0_lower_bound(m, cfg), 4),
               Table::fmt(
                   analytic::multibranch_supermajority_epoch(m, 0.25, cfg),
                   0)});
  }
  bench::emit(t, "ext_multibranch.csv");
  std::printf(
      "takeaway: splitting honest validators across more branches lowers\n"
      "the Byzantine stake needed to cross 1/3 (0.2421 at m=2 falls\n"
      "below 0.2 by m=4) at the cost of slower per-branch recovery —\n"
      "a sharper version of the paper's two-branch bound.\n");

  bench::print_header(
      "Post-leak recovery tail (Figure 3 'keeps rising' effect)");
  Table r({"p0", "leak end epoch", "score at end", "recovery epochs",
           "extra loss (ETH)"});
  for (const double p0 : {0.55, 0.6, 0.65}) {
    const double t_end = analytic::time_to_supermajority_honest(p0, cfg);
    const double score = analytic::score_at_leak_end(t_end, cfg);
    const double s_end =
        analytic::stake(analytic::Behavior::kInactive, t_end, cfg);
    r.add_row({Table::fmt(p0, 2), Table::fmt(t_end, 0),
               Table::fmt(score, 0),
               Table::fmt(analytic::recovery_epochs(score), 0),
               Table::fmt(analytic::residual_loss(score, s_end, cfg), 3)});
  }
  bench::emit(r, "ext_recovery.csv");

  // The registry view of the same extensions: the semiactive-sweep
  // scenario cross-checks the closed forms above with a Monte Carlo,
  // and multi-partition-recovery runs the k-branch heal schedule on
  // the epoch-granular simulator (small sizes — this is a report, the
  // CI-guarded numbers live in bench/baselines/).
  bench::print_header(
      "Registry scenarios: semiactive-sweep / multi-partition-recovery");
  const auto& registry = scenario::builtin_registry();
  {
    const auto& sc = *registry.find("semiactive-sweep");
    Table t({"branches", "beta_max", "supermajority epoch",
             "mc P[beta>1/3]"});
    for (const std::int64_t m : {2, 3, 4}) {
      auto params = sc.spec().defaults();
      params.set("branches", m);
      params.set("paths", std::int64_t{256});
      params.set("epochs", std::int64_t{2000});
      const auto res = sc.run(params);
      t.add_row({std::to_string(m), Table::fmt(res.metric("beta_max"), 4),
                 Table::fmt(res.metric("supermajority_recovery_epoch"), 0),
                 Table::fmt(res.metric("mc_prob_beta_exceeds"), 3)});
    }
    bench::emit(t, "ext_semiactive_sweep.csv");
  }
  {
    const auto& sc = *registry.find("multi-partition-recovery");
    Table t({"branches", "stagger", "recovered", "mean residual (ETH)",
             "closed-form err (ETH)"});
    for (const std::int64_t stagger : {0, 400}) {
      auto params = sc.spec().defaults();
      params.set("paths", std::int64_t{4});
      params.set("n_validators", std::int64_t{200});
      params.set("branches", std::int64_t{3});
      params.set("heal_epoch", std::int64_t{1500});
      params.set("heal_stagger", stagger);
      params.set("max_epochs", std::int64_t{5000});
      const auto res = sc.run(params);
      t.add_row({"3", std::to_string(stagger),
                 Table::fmt(res.metric("recovered_fraction"), 2),
                 Table::fmt(res.metric("mean_residual_loss_eth"), 3),
                 Table::fmt(res.metric("det_recovery_closed_form_abs_err"),
                            5)});
    }
    bench::emit(t, "ext_multi_partition_recovery.csv");
  }
}

void BM_MultibranchBound(benchmark::State& state) {
  const auto cfg = analytic::AnalyticConfig::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analytic::multibranch_beta0_lower_bound(
        static_cast<unsigned>(state.range(0)), cfg));
  }
}
BENCHMARK(BM_MultibranchBound)->Arg(2)->Arg(8);

void BM_ResidualLossDiscrete(benchmark::State& state) {
  const auto cfg = analytic::AnalyticConfig::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analytic::residual_loss_discrete(12000.0, 24.0, cfg));
  }
}
BENCHMARK(BM_ResidualLossDiscrete);

void BM_MultibranchExceedThreshold(benchmark::State& state) {
  const auto cfg = analytic::AnalyticConfig::paper();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analytic::multibranch_exceed_threshold(
        static_cast<unsigned>(state.range(0)), 0.33, 2000.0, cfg));
  }
}
BENCHMARK(BM_MultibranchExceedThreshold)->Arg(2)->Arg(4);

/// One full k-branch heal-schedule run of the epoch-granular simulator
/// (the multi-partition-recovery inner kernel).
void BM_KBranchPartitionHeal(benchmark::State& state) {
  sim::PartitionSimConfig cfg;
  cfg.n_validators = 200;
  cfg.strategy = sim::Strategy::kNone;
  faults::compile_partition(
      faults::FaultSchedule::staggered_partition(
          static_cast<std::uint32_t>(state.range(0)), 0, 1500, 400),
      &cfg);
  cfg.max_epochs = 5000;
  cfg.trajectory_stride = cfg.max_epochs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_partition_sim(cfg));
  }
}
BENCHMARK(BM_KBranchPartitionHeal)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

LEAK_BENCH_MAIN(report)
