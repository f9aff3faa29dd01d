// Self-test of the benchmark's own logic: the percentile rule, the
// fastest-quarter mean, golden digest checking, the throughput
// arithmetic and the runner block count.  Prints one line per check
// and exits non-zero on a failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/bench.hpp"
#include "src/runner/thread_pool.hpp"
#include "src/scenario/registry.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b); }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so summarize() must sort
}

void percentile_rule() {
  using perfbench::summarize;
  const auto s1000 = summarize(one_to(1000));
  expect(s1000.samples == 1000 && s1000.has_tail && near(s1000.tail_pct, 99.0) &&
             near(s1000.tail, 990.0),
         "1000 samples: tail is p99 = 990 with 10 samples beyond");
  const auto s100 = summarize(one_to(100));
  expect(near(s100.tail_pct, 90.0) && near(s100.tail, 90.0) &&
             near(s100.p50, 50.5),
         "100 samples: tail is p90 = 90, p50 = 50.5");
  const auto s11 = summarize(one_to(11));
  expect(s11.has_tail && near(s11.tail, 1.0),
         "11 samples: tail is the minimum (10 beyond it)");
  const auto s10 = summarize(one_to(10));
  expect(!s10.has_tail && s10.samples == 10,
         "10 samples: no percentile has 10 beyond it; count still reported");
}

void fast_quarter() {
  using perfbench::fast_mean;
  expect(near(fast_mean(one_to(8)), 1.5), "8 samples: mean of the fastest 2");
  expect(near(fast_mean(one_to(12)), 2.0), "12 samples: mean of the fastest 3");
  expect(near(fast_mean({3.0, 1.0, 2.0}), 1.0), "3 samples: the fastest one");
}

void golden_digests() {
  perfbench::Options opt;
  opt.workload = "slot";
  opt.golden_path = "golden.json";
  opt.seed = perfbench::kDefaultSeed;
  perfbench::json::Value doc = perfbench::json::Value::object();
  perfbench::json::Value slot = perfbench::json::Value::object();
  slot.set("cell", "0123456789abcdef");
  doc.set("slot", slot);

  const auto* golden = perfbench::golden_for(opt, doc);
  perfbench::Checker ok;
  perfbench::check_golden(golden, "cell", "0123456789abcdef", &ok);
  expect(ok.failed() == 0, "matching golden digest passes");

  perfbench::Checker bad;
  perfbench::check_golden(golden, "cell", "0123456789abcdee", &bad);
  expect(bad.failed() == 1 && bad.attempted() == 1,
         "perturbed golden digest counts one failed op");

  perfbench::Checker missing;
  perfbench::check_golden(golden, "other", "0123456789abcdef", &missing);
  expect(missing.failed() == 1, "missing golden entry counts as failed");

  opt.seed = perfbench::kDefaultSeed + 1;
  expect(perfbench::golden_for(opt, doc) == nullptr,
         "goldens apply only at the default seed");
}

void throughput_arithmetic() {
  using perfbench::rate;
  // Two cells of 16 and 48 trials timed at 0.5 s and 1.5 s:
  // 64 trials over 2 s, 2 cells over 2 s.
  expect(near(rate(16.0 + 48.0, 0.5 + 1.5), 32.0), "trials_per_s = 64 / 2 s");
  expect(near(rate(2.0, 0.5 + 1.5), 1.0), "cells_per_s = 2 / 2 s");
  // jobs: 2000 cells of 64 paths made durable in 1.25 s.
  expect(near(rate(2000.0, 1.25), 1600.0), "jobs cells_per_s = 1600");
  expect(near(rate(2000.0 * 64.0, 1.25), 102400.0),
         "jobs trials_per_s = cells_per_s x 64");
}

void blocks_per_cell() {
  const std::size_t block = leak::runner::resolve_block(0);
  expect(block > 0, "resolve_block(0) is positive");
  expect(perfbench::blocks_for(1, block) == 1 &&
             perfbench::blocks_for(block, block) == 1 &&
             perfbench::blocks_for(block + 1, block) == 2,
         "blocks_for is ceil(paths / block) at the edges");
  leak::scenario::ScenarioRegistry registry;
  leak::scenario::register_builtin_scenarios(registry);
  for (const auto& w : perfbench::workloads()) {
    for (const auto& c : perfbench::resolve_cells(w, registry, 1, 4)) {
      const std::size_t n = perfbench::blocks_for(c.paths, block);
      expect(n == (c.paths + block - 1) / block && (n - 1) * block < c.paths &&
                 n * block >= c.paths,
             w.name + "/" + c.label + ": " + std::to_string(n) +
                 " blocks of resolve_block(0) = " + std::to_string(block));
    }
  }
}

}  // namespace

int main() {
  percentile_rule();
  fast_quarter();
  golden_digests();
  throughput_arithmetic();
  blocks_per_cell();
  std::printf("%s\n", g_failures == 0 ? "selftest: all passed"
                                      : "selftest: FAILED");
  return g_failures == 0 ? 0 : 1;
}
