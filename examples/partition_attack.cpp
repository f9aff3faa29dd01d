// Partition-attack explorer (Sections 5.1 and 5.2).
//
// Runs the epoch-granular partition simulator for a chosen Byzantine
// strategy and stake proportion, printing the timeline of the leak:
// active-stake ratios, Byzantine proportion, ejections, supermajority
// recovery and the epoch Safety is lost, next to the closed-form
// predictions.
//
//   ./partition_attack [strategy] [beta0] [p0] [threads] [branches]
//                      [heal_epoch] [heal_stagger]
//     strategy:     honest|slashable|semiactive|overthrow (default: slashable)
//     beta0:        Byzantine stake proportion                  (default: 0.2)
//     p0:           honest proportion on branch 1               (default: 0.5)
//     threads:      Monte Carlo worker threads, 0 = auto        (default: 0)
//     branches:     partition branches, 2 <= k <= 255           (default: 2)
//     heal_epoch:   first pairwise heal epoch, 0 = never        (default: 0)
//     heal_stagger: epochs between successive pairwise heals    (default: 0)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/analytic/solvers.hpp"
#include "src/faults/driver.hpp"
#include "src/scenario/registry.hpp"
#include "src/sim/partition_sim.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [honest|slashable|semiactive|overthrow] [beta0] "
               "[p0] [threads] [branches 2..255] [heal_epoch] "
               "[heal_stagger]\n", argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace leak;

  sim::Strategy strategy = sim::Strategy::kSlashable;
  if (argc > 1) {
    const std::string s = argv[1];
    if (s == "honest") strategy = sim::Strategy::kNone;
    else if (s == "slashable") strategy = sim::Strategy::kSlashable;
    else if (s == "semiactive") strategy = sim::Strategy::kSemiActiveFinalize;
    else if (s == "overthrow") strategy = sim::Strategy::kSemiActiveOverthrow;
    else return usage(argv[0]);
  }
  const double beta0 =
      argc > 2 ? std::atof(argv[2])
               : (strategy == sim::Strategy::kNone ? 0.0 : 0.2);
  const double p0 = argc > 3 ? std::atof(argv[3]) : 0.5;
  const unsigned threads =
      argc > 4 ? static_cast<unsigned>(std::atoi(argv[4])) : 0;
  const auto branches =
      argc > 5 ? static_cast<std::uint32_t>(std::atoi(argv[5])) : 2u;
  const auto heal_epoch =
      argc > 6 ? static_cast<std::size_t>(std::atoll(argv[6])) : 0u;
  const auto heal_stagger =
      argc > 7 ? static_cast<std::size_t>(std::atoll(argv[7])) : 0u;

  sim::PartitionSimConfig cfg;
  cfg.n_validators = 1000;
  cfg.beta0 = beta0;
  cfg.p0 = p0;
  cfg.strategy = strategy;
  cfg.max_epochs = heal_epoch > 0 ? 9000 : 6000;
  cfg.trajectory_stride = 250;
  try {
    faults::compile_partition(
        faults::FaultSchedule::staggered_partition(branches, 0, heal_epoch,
                                                   heal_stagger),
        &cfg);
  } catch (const std::invalid_argument&) {
    return usage(argv[0]);  // branches outside [2, 255], or heal_epoch 1
  }

  std::printf("partition scenario: beta0=%.2f p0=%.2f, %u validators, "
              "%u branches%s\n",
              beta0, p0, cfg.n_validators, cfg.branches,
              heal_epoch > 0 ? " (healing)" : "");
  const auto r = sim::run_partition_sim(cfg);
  std::printf("  byzantine: %u, honest:", r.n_byzantine);
  for (const auto c : r.n_honest_per_branch) std::printf(" %u", c);
  std::printf("\n\n");

  if (cfg.branches == 2) {
    std::printf("timeline (sampled every %zu epochs):\n",
                cfg.trajectory_stride);
    std::printf("%8s | %12s %8s | %12s %8s\n", "epoch", "b1 ratio",
                "b1 beta", "b2 ratio", "b2 beta");
    const auto& b1 = r.branch[0];
    const auto& b2 = r.branch[1];
    const std::size_t rows = std::min(b1.ratio_trajectory.size(),
                                      b2.ratio_trajectory.size());
    for (std::size_t i = 0; i < rows; i += 1) {
      std::printf("%8zu | %12.4f %8.4f | %12.4f %8.4f\n",
                  (i + 1) * cfg.trajectory_stride, b1.ratio_trajectory[i],
                  b1.beta_trajectory[i], b2.ratio_trajectory[i],
                  b2.beta_trajectory[i]);
    }
  }

  std::printf("\noutcomes:\n");
  for (std::size_t b = 0; b < r.branch.size(); ++b) {
    const auto& br = r.branch[b];
    std::printf("  branch %zu: supermajority at %lld, finalization at %lld, "
                "honest ejection at %lld, beta peak %.4f (epoch %lld)",
                b + 1, static_cast<long long>(br.supermajority_epoch),
                static_cast<long long>(br.finalization_epoch),
                static_cast<long long>(br.honest_ejection_epoch),
                br.beta_peak, static_cast<long long>(br.beta_peak_epoch));
    if (br.healed_epoch >= 0) {
      std::printf(", healed at %lld",
                  static_cast<long long>(br.healed_epoch));
    }
    std::printf("\n");
  }
  if (heal_epoch > 0) {
    std::printf("\nrecovery tail (after finality resumed):\n");
    for (const auto& rec : r.recovery) {
      if (rec.ejected_before_return) {
        std::printf("  class from branch %u: ejected before it could "
                    "return\n", rec.from_branch + 1);
        continue;
      }
      if (rec.return_epoch < 0) {
        std::printf("  class from branch %u: never returned within the "
                    "horizon (the leak did not end)\n",
                    rec.from_branch + 1);
        continue;
      }
      if (rec.recovery_epochs < 0) {
        std::printf("  class from branch %u (%u validators): returned at "
                    "%lld with score %.0f, recovery still running at the "
                    "horizon\n",
                    rec.from_branch + 1, rec.class_size,
                    static_cast<long long>(rec.return_epoch),
                    rec.score_at_return);
        continue;
      }
      std::printf("  class from branch %u (%u validators): returned at "
                  "%lld with score %.0f, lost %.4f ETH each over %lld "
                  "epochs\n",
                  rec.from_branch + 1, rec.class_size,
                  static_cast<long long>(rec.return_epoch),
                  rec.score_at_return, rec.residual_loss_eth,
                  static_cast<long long>(rec.recovery_epochs));
    }
    if (r.recovery_complete_epoch >= 0) {
      std::printf("  recovery complete at %lld; total residual loss %.3f "
                  "ETH\n",
                  static_cast<long long>(r.recovery_complete_epoch),
                  r.residual_loss_total_eth);
    } else {
      std::printf("  recovery not complete within the horizon\n");
    }
  }
  if (r.conflicting_finalization_epoch > 0) {
    std::printf("  SAFETY LOST: conflicting finalization at epoch %lld "
                "(~%.1f days)\n",
                static_cast<long long>(r.conflicting_finalization_epoch),
                static_cast<double>(r.conflicting_finalization_epoch) * 6.4 /
                    60.0 / 24.0);
  }
  if (r.beta_exceeded_third_both) {
    std::printf("  SAFETY THRESHOLD BROKEN: beta > 1/3 on both branches\n");
  }

  // Monte Carlo over the honest split: the deterministic run above
  // rounds p0 into fixed branch populations; redrawing the assignment
  // iid measures how sensitive the outcome is to the realised split.
  // Runs through the partition-trials registry scenario (same artifact
  // as `leakctl run partition-trials --set strategy=...`).
  {
    // The k-branch / healing configurations run through the
    // multi-partition-recovery scenario; the plain two-branch split
    // keeps using partition-trials (the Table 1 robustness artifact).
    const bool multi = branches > 2 || heal_epoch > 0;
    const auto& trials_scenario = *scenario::builtin_registry().find(
        multi ? "multi-partition-recovery" : "partition-trials");
    auto params = trials_scenario.spec().defaults();
    params.set("paths", std::int64_t{32});
    params.set("n_validators",
               static_cast<std::int64_t>(cfg.n_validators));
    params.set("beta0", beta0);
    params.set("p0", p0);
    params.set("strategy", std::string(argc > 1 ? argv[1] : "slashable"));
    params.set("max_epochs", static_cast<std::int64_t>(cfg.max_epochs));
    params.set("threads", static_cast<std::int64_t>(threads));
    if (multi) {
      params.set("branches", static_cast<std::int64_t>(branches));
      params.set("heal_epoch", static_cast<std::int64_t>(heal_epoch));
      params.set("heal_stagger", static_cast<std::int64_t>(heal_stagger));
    }
    scenario::ScenarioResult mc;
    try {
      mc = trials_scenario.run(params);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "partition_attack: %s\n", e.what());
      return 2;
    }
    std::printf("\nMonte Carlo over 32 random honest splits "
                "(%u threads, scenario \"%s\"):\n",
                mc.threads, mc.scenario.c_str());
    std::printf("  conflicting finalization in %.0f%% of trials"
                " (mean epoch %.0f); beta > 1/3 on both branches in "
                "%.0f%%\n",
                100.0 * mc.metric("conflicting_fraction"),
                mc.metric("mean_conflict_epoch"),
                100.0 * mc.metric("beta_exceeded_fraction"));
    if (multi && heal_epoch > 0) {
      std::printf("  recovery completed in %.0f%% of trials; mean "
                  "residual loss %.3f ETH\n",
                  100.0 * mc.metric("recovered_fraction"),
                  mc.metric("mean_residual_loss_eth"));
    }
  }

  // Closed-form prediction for comparison.
  const auto model = analytic::AnalyticConfig::stated();
  analytic::ByzantineStrategy as = analytic::ByzantineStrategy::kNone;
  if (strategy == sim::Strategy::kSlashable) {
    as = analytic::ByzantineStrategy::kSlashable;
  } else if (strategy == sim::Strategy::kSemiActiveFinalize) {
    as = analytic::ByzantineStrategy::kSemiActive;
  }
  if (strategy != sim::Strategy::kSemiActiveOverthrow) {
    std::printf("\nclosed-form prediction (16.75 ETH threshold): %.0f epochs\n",
                analytic::conflicting_finalization_epoch(p0, beta0, as,
                                                         model));
  } else {
    std::printf("\nclosed-form beta_max (branch 1): %.4f, minimum beta0 to "
                "cross 1/3: %.4f\n",
                analytic::beta_max(p0, beta0, model),
                analytic::beta0_lower_bound(p0, model));
  }
  return 0;
}
