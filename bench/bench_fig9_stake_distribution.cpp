// Figures 8 & 9 — the bouncing attack's stake law: the Figure 8 Markov
// chain's two-epoch increment distribution, the Figure 9 censored stake
// distribution at t = 4024 (point mass at 0 for ejected validators,
// log-normal bulk, point mass at the 32 ETH cap), cross-validated by
// exact random-walk convolution and Monte Carlo.
#include "bench/bench_common.hpp"

#include "src/bouncing/distribution.hpp"
#include "src/bouncing/markov.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/bouncing/walk.hpp"
#include "src/runner/thread_pool.hpp"
#include "src/scenario/registry.hpp"
#include "src/support/stats.hpp"
#include "tests/oracles/scalar_oracles.hpp"

namespace {

using namespace leak;

void report() {
  const auto cfg = analytic::AnalyticConfig::paper();
  bench::print_header("Figure 8: two-epoch score increment law (Eq 15)");
  Table m({"p0", "P[+8]", "P[+3]", "P[-2]", "mean/2epochs"});
  for (const double p0 : {0.3, 0.4, 0.5}) {
    const auto inc = bouncing::two_epoch_increment(p0);
    m.add_row({Table::fmt(p0, 1), Table::fmt(inc.p_plus8, 4),
               Table::fmt(inc.p_plus3, 4), Table::fmt(inc.p_minus2, 4),
               Table::fmt(8 * inc.p_plus8 + 3 * inc.p_plus3 -
                              2 * inc.p_minus2, 3)});
  }
  bench::emit(m, "fig8.csv");

  const double t = 4024.0;
  bouncing::StakeLaw law(0.5, cfg);
  bench::print_header("Figure 9: censored stake law at t=4024 (p0=0.5)");
  Table p({"component", "closed form", "Monte Carlo"});
  // Monte Carlo through the scenario registry: the bouncing-mc
  // defaults ARE the Figure 9 configuration (4000 paths, t=4024,
  // seed 99), so the published numbers come from the same path a
  // `leakctl run bouncing-mc` or a sweep cell uses.
  const auto& mc_scenario =
      *scenario::builtin_registry().find("bouncing-mc");
  const auto r = mc_scenario.run(mc_scenario.spec().defaults());
  std::printf("(Monte Carlo on %u threads, registry scenario \"%s\")\n",
              r.threads, r.scenario.c_str());
  p.add_row({"mass at 0 (ejected)", Table::fmt(law.mass_ejected(t), 5),
             Table::fmt(r.metric("ejected_fraction"), 5)});
  p.add_row({"mass at 32 (capped)", Table::fmt(law.mass_capped(t), 5),
             Table::fmt(r.metric("capped_fraction"), 5)});
  p.add_row({"median of bulk (ETH)",
             Table::fmt(std::exp(law.mu_ln(t)), 3),
             Table::fmt(r.metric("median_alive_stake"), 3)});
  bench::emit(p, "fig9_masses.csv");

  Table d({"stake (ETH)", "density P(s,t)", "cdf F(s,t)"});
  for (double s = 17.0; s <= 32.0; s += 1.0) {
    d.add_row({Table::fmt(s, 1), Table::fmt(law.pdf_censored(s, t), 5),
               Table::fmt(law.cdf_censored(s, t), 5)});
  }
  bench::emit(d, "fig9_density.csv");

  bench::print_header(
      "Gaussian (Eq 16) vs exact walk convolution at t=1000");
  const auto pmf = bouncing::exact_score_pmf(0.5, 1000, false);
  Table g({"statistic", "paper Gaussian", "exact walk"});
  const auto w = bouncing::WalkParams::paper(0.5);
  g.add_row({"mean score", Table::fmt(w.drift * 1000.0, 1),
             Table::fmt(pmf.mean(), 1)});
  g.add_row({"variance", Table::fmt(2.0 * w.diffusion * 1000.0, 1),
             Table::fmt(pmf.variance(), 1)});
  bench::emit(g, "fig9_gaussian_check.csv");
  std::printf(
      "note: the paper's Gaussian carries twice the exact walk variance\n"
      "(documented in docs/MODEL.md); the median-based Figure 10 results\n"
      "are insensitive to it.\n");
}

void BM_ExactScorePmf(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(bouncing::exact_score_pmf(
        0.5, static_cast<std::size_t>(state.range(0)), true));
  }
}
BENCHMARK(BM_ExactScorePmf)->Arg(200)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_CensoredCdf(benchmark::State& state) {
  const auto cfg = analytic::AnalyticConfig::paper();
  bouncing::StakeLaw law(0.5, cfg);
  double s = 17.0;
  for (auto _ : state) {
    s = s >= 31.0 ? 17.0 : s + 1e-3;
    benchmark::DoNotOptimize(law.cdf_censored(s, 4024.0));
  }
}
BENCHMARK(BM_CensoredCdf);

void BM_MonteCarloPaths(benchmark::State& state) {
  for (auto _ : state) {
    bouncing::McConfig mc;
    mc.paths = static_cast<std::size_t>(state.range(0));
    mc.epochs = 2000;
    benchmark::DoNotOptimize(bouncing::run_bouncing_mc(mc, {2000}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2000);
}
BENCHMARK(BM_MonteCarloPaths)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// Scalar reference kernel on the 10k-path Figure 9 run, single thread:
// the baseline the batched kernel must beat (the CI bench-smoke job
// compares BM_MonteCarloBlockSize against this, tools/
// check_bench_speedup.py).  The scalar kernel now lives in the test
// oracle library (tests/oracles/) — production code no longer carries
// it.  items = path-epochs; paths/sec is items_per_second / 2000.
void BM_MonteCarloScalarRef(benchmark::State& state) {
  bouncing::McConfig mc;
  mc.paths = 10000;
  mc.epochs = 2000;
  mc.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle::run_bouncing_mc_scalar(mc, {2000}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mc.paths) * 2000);
}
BENCHMARK(BM_MonteCarloScalarRef)->Unit(benchmark::kMillisecond);

// Block-size sweep of the batched kernel on the same 10k-path run,
// single thread, full (matrix-materializing) mode — apples-to-apples
// with the scalar reference.  Arg is the block size; results are
// bit-identical across all of them (tests/test_montecarlo_batch.cpp).
void BM_MonteCarloBlockSize(benchmark::State& state) {
  bouncing::McConfig mc;
  mc.paths = 10000;
  mc.epochs = 2000;
  mc.threads = 1;
  mc.block = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bouncing::run_bouncing_mc(mc, {2000}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mc.paths) * 2000);
  state.counters["block"] =
      static_cast<double>(runner::resolve_block(mc.block));
}
BENCHMARK(BM_MonteCarloBlockSize)
    ->Arg(1)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Thread-scaling sweep of the Figure 9 10k-path run: Arg is the
// thread count (0 = auto), results identical across all of them.
void BM_MonteCarloPathsThreads(benchmark::State& state) {
  bouncing::McConfig mc;
  mc.paths = 10000;
  mc.epochs = 2000;
  mc.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bouncing::run_bouncing_mc(mc, {2000}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(mc.paths) * 2000);
  state.counters["threads"] =
      static_cast<double>(runner::resolve_threads(mc.threads));
}
BENCHMARK(BM_MonteCarloPathsThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

LEAK_BENCH_MAIN(report)
