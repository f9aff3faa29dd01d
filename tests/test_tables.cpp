// Reproduction tests for the paper's Tables 1-3: every row's computed
// value must sit within a documented tolerance of the printed value.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analytic/tables.hpp"

namespace leak::analytic {
namespace {

const AnalyticConfig kPaper = AnalyticConfig::paper();

TEST(Table2Repro, AllRowsWithinOneEpoch) {
  const auto rows = table2(kPaper);
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& r : rows) {
    EXPECT_NEAR(r.computed_epochs, r.paper_epochs, 1.5)
        << "beta0=" << r.beta0;
  }
}

TEST(Table2Repro, RowsDecreasing) {
  const auto rows = table2(kPaper);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i].computed_epochs, rows[i - 1].computed_epochs);
  }
}

TEST(Table3Repro, EndpointsMatchPaper) {
  // The paper's own numeric example (beta0 = 0.33 -> 555.65) and the
  // honest limit (4685) reproduce to the epoch.
  const auto rows = table3(kPaper);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_NEAR(rows[0].computed_epochs, 4685.0, 1.5);
  EXPECT_NEAR(rows[4].computed_epochs, 555.65, 1.0);
}

TEST(Table3Repro, MidRowsWithinOnePercent) {
  // The paper's middle rows (4221 / 3819 / 3328) differ from the exact
  // Eq 10 roots by ~0.5% (see docs/MODEL.md); assert the reproduction
  // stays within 1%.
  const auto rows = table3(kPaper);
  for (const auto& r : rows) {
    EXPECT_NEAR(r.computed_epochs / r.paper_epochs, 1.0, 0.01)
        << "beta0=" << r.beta0;
  }
}

TEST(Table3Repro, SemiActiveSlowerThanSlashingRowwise) {
  const auto t2 = table2(kPaper);
  const auto t3 = table3(kPaper);
  for (std::size_t i = 1; i < t2.size(); ++i) {  // skip beta0=0 (equal)
    EXPECT_GT(t3[i].computed_epochs, t2[i].computed_epochs);
  }
}

TEST(Table1Repro, FiveScenariosWithExpectedOutcomes) {
  const auto rows = table1(kPaper);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].id, "5.1");
  EXPECT_EQ(rows[0].outcome, "2 finalized branches");
  EXPECT_NEAR(rows[0].witness, 4686.0, 1.5);
  EXPECT_EQ(rows[1].id, "5.2.1");
  EXPECT_NEAR(rows[1].witness, 503.0, 1.5);
  EXPECT_EQ(rows[2].id, "5.2.2");
  EXPECT_NEAR(rows[2].witness, 557.0, 1.5);
  EXPECT_EQ(rows[3].id, "5.2.3");
  EXPECT_EQ(rows[3].outcome, "beta > 1/3");
  EXPECT_NEAR(rows[3].witness, 0.2421, 5e-4);
  EXPECT_EQ(rows[4].id, "5.3");
  EXPECT_EQ(rows[4].outcome, "beta > 1/3 probably");
}

TEST(Table1Repro, ByzantineScenariosFasterThanHonest) {
  const auto rows = table1(kPaper);
  EXPECT_LT(rows[1].witness, rows[0].witness);
  EXPECT_LT(rows[2].witness, rows[0].witness);
  EXPECT_LT(rows[1].witness, rows[2].witness);
}

}  // namespace
}  // namespace leak::analytic
