// Tests for the mixed-population generalization: it must collapse to
// every specialized model of the paper and behave sensibly for novel
// mixtures.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analytic/population.hpp"
#include "src/analytic/ratio_model.hpp"
#include "src/analytic/solvers.hpp"
#include "tests/oracles/yardsticks.hpp"

namespace leak::analytic {
namespace {

const AnalyticConfig kPaper = AnalyticConfig::paper();

TEST(Population5, RecoversEq5) {
  const auto pop = make_honest_partition_population(0.4, kPaper);
  for (double t : {0.0, 500.0, 2000.0, 4000.0, 5000.0}) {
    EXPECT_NEAR(pop.active_ratio(t), active_ratio_honest(t, 0.4, kPaper),
                1e-12)
        << t;
  }
}

TEST(Population5, RecoversEq8) {
  // Byzantine validators active on both branches, at full stake.
  const double p0 = 0.5, b0 = 0.2;
  const Population pop(
      {
          {"honest-active", p0 * (1.0 - b0), 0.0, true},
          {"byzantine", b0, 0.0, true},
          {"honest-inactive", (1.0 - p0) * (1.0 - b0), kPaper.score_bias,
           false},
      },
      kPaper);
  for (double t : {0.0, 1000.0, 3000.0}) {
    EXPECT_NEAR(pop.active_ratio(t),
                oracle::active_ratio_slashing(t, p0, b0, kPaper), 1e-12);
  }
}

TEST(Population5, RecoversEq10AndEq11) {
  const auto pop = make_semiactive_population(0.5, 0.33, kPaper);
  for (double t : {0.0, 300.0, 555.0}) {
    EXPECT_NEAR(pop.active_ratio(t),
                active_ratio_semiactive(t, 0.5, 0.33, kPaper), 1e-12);
    EXPECT_NEAR(pop.proportion(1, t),
                oracle::byzantine_proportion(t, 0.5, 0.33, kPaper), 1e-12);
  }
}

TEST(Population5, SupermajorityMatchesSolvers) {
  const auto pop = make_semiactive_population(0.5, 0.33, kPaper);
  EXPECT_NEAR(pop.supermajority_epoch(),
              time_to_supermajority_semiactive(0.5, 0.33, kPaper), 0.5);
  const auto honest = make_honest_partition_population(0.6, kPaper);
  EXPECT_NEAR(honest.supermajority_epoch(),
              time_to_supermajority_honest(0.6, kPaper), 0.5);
}

TEST(Population5, PeakProportionMatchesBetaMax) {
  const auto pop = make_semiactive_population(0.5, 0.3, kPaper);
  const auto peak = pop.peak_proportion(1, 9000.0, 0.5);
  EXPECT_NEAR(peak.value, beta_max(0.5, 0.3, kPaper), 1e-3);
  EXPECT_NEAR(peak.epoch, ejection_epoch(Behavior::kInactive, kPaper), 2.0);
}

TEST(Population5, RealisticFleetWithMissedDuties) {
  // A novel mixture the paper cannot express: 60% perfect validators,
  // 30% validators missing 5% of duties (slope ~ 0.05*(4+1) = 0.25),
  // 10% offline.  The branch starts below 2/3 active... actually at
  // 0.9 active share it is already above; verify the ratio only grows.
  Population pop(
      {
          {"perfect", 0.6, 0.0, true},
          {"flaky", 0.3, 0.25, true},
          {"offline", 0.1, 4.0, false},
      },
      kPaper);
  EXPECT_GT(pop.active_ratio(0.0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(pop.supermajority_epoch(), 0.0);
  double prev = 0.0;
  for (double t = 0.0; t < 6000.0; t += 100.0) {
    const double r = pop.active_ratio(t);
    EXPECT_GE(r, prev - 1e-9);
    prev = r;
  }
}

TEST(Population5, MinorityActiveBranchNeedsEjectionWave) {
  // 30% active, 60% offline, 10% flaky-active: the branch regains 2/3
  // only when the offline class is ejected.
  Population pop(
      {
          {"active", 0.3, 0.0, true},
          {"offline", 0.6, 4.0, false},
          {"flaky", 0.1, 0.5, true},
      },
      kPaper);
  const double t = pop.supermajority_epoch();
  EXPECT_GT(t, 0.0);
  EXPECT_NEAR(t, ejection_epoch(Behavior::kInactive, kPaper), 30.0);
}

TEST(Population5, ProportionsSumToOne) {
  const auto pop = make_semiactive_population(0.4, 0.25, kPaper);
  for (double t : {0.0, 1000.0, 4000.0, 8000.0}) {
    double sum = 0.0;
    for (std::size_t k = 0; k < 3; ++k) {  // active, Byzantine, inactive
      sum += pop.proportion(k, t);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << t;
  }
}

TEST(Population5, Validation) {
  EXPECT_THROW(Population({}, kPaper), std::invalid_argument);
  EXPECT_THROW(Population({{"a", 0.5, 0.0, true}}, kPaper),
               std::invalid_argument);  // shares != 1
  EXPECT_THROW(Population({{"a", 1.0, 9.0, true}}, kPaper),
               std::invalid_argument);  // slope > bias
  EXPECT_THROW(Population({{"a", -1.0, 0.0, true}, {"b", 2.0, 0.0, true}},
                          kPaper),
               std::invalid_argument);  // negative share
}

TEST(Population5, NeverRecoversReturnsMinusOne) {
  // Everybody counts inactive: the ratio is identically 0.
  Population pop({{"offline", 1.0, 4.0, false}}, kPaper);
  EXPECT_DOUBLE_EQ(pop.supermajority_epoch(6000.0), -1.0);
}

}  // namespace
}  // namespace leak::analytic
