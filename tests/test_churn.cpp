// Tests for the exit churn limit and its effect on the ejection wave.
#include <gtest/gtest.h>

#include "src/penalties/churn.hpp"
#include "src/penalties/inactivity.hpp"
#include "src/sim/partition_sim.hpp"

namespace leak::penalties {
namespace {

TEST(ChurnLimit, SpecFormula) {
  EXPECT_EQ(churn_limit(0), 4u);
  EXPECT_EQ(churn_limit(1000), 4u);
  EXPECT_EQ(churn_limit(65536 * 5), 5u);
  EXPECT_EQ(churn_limit(65536 * 100), 100u);
}

TEST(ExitQueueTest, FifoAndIdempotent) {
  chain::ValidatorRegistry reg(10);
  ExitQueue q;
  q.request_exit(ValidatorIndex{3});
  q.request_exit(ValidatorIndex{1});
  q.request_exit(ValidatorIndex{3});  // duplicate ignored
  const auto out = q.process_epoch(reg, Epoch{5});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], ValidatorIndex{3});  // FIFO order
  EXPECT_EQ(out[1], ValidatorIndex{1});
  EXPECT_FALSE(reg.is_active(ValidatorIndex{3}, Epoch{5}));
  EXPECT_TRUE(q.process_epoch(reg, Epoch{6}).empty());  // queue drained
}

TEST(ExitQueueTest, RespectsPerEpochLimit) {
  chain::ValidatorRegistry reg(100);
  ExitQueue q;  // limit = max(4, 100/65536) = 4
  for (std::uint32_t i = 0; i < 10; ++i) q.request_exit(ValidatorIndex{i});
  EXPECT_EQ(q.process_epoch(reg, Epoch{1}).size(), 4u);
  EXPECT_EQ(q.process_epoch(reg, Epoch{2}).size(), 4u);
  EXPECT_EQ(q.process_epoch(reg, Epoch{3}).size(), 2u);
}

TEST(ChurnTracker, EjectionWaveSmearedOverEpochs) {
  // 64 inactive validators, churn limit 4/epoch: the wave that the
  // instantaneous model finishes in one epoch takes ~16 epochs.
  chain::ValidatorRegistry reg(64);
  SpecConfig spec = SpecConfig::paper();
  spec.use_churn_limit = true;
  InactivityTracker tracker(reg, spec);
  const std::vector<std::uint8_t> inactive(64, 0);
  std::size_t total_ejected = 0;
  std::uint64_t first_ejection = 0, last_ejection = 0;
  for (std::uint64_t t = 1; t <= 6000 && total_ejected < 64; ++t) {
    const auto rep = tracker.process_epoch(Epoch{t}, Epoch{0}, inactive);
    if (!rep.ejected.empty()) {
      if (first_ejection == 0) first_ejection = t;
      last_ejection = t;
      total_ejected += rep.ejected.size();
      EXPECT_LE(rep.ejected.size(), 4u);
    }
  }
  EXPECT_EQ(total_ejected, 64u);
  EXPECT_GE(last_ejection - first_ejection + 1, 16u);
}

TEST(ChurnTracker, QueuedValidatorsKeepLeaking) {
  chain::ValidatorRegistry reg(64);
  SpecConfig spec = SpecConfig::paper();
  spec.use_churn_limit = true;
  InactivityTracker tracker(reg, spec);
  const std::vector<std::uint8_t> inactive(64, 0);
  // Run to mid-wave (64 exits at 4/epoch take ~16 epochs from ~4661):
  // the still-queued validators' balances sit at/below the threshold.
  const std::uint64_t mid_wave = 4666;
  for (std::uint64_t t = 1; t <= mid_wave; ++t) {
    tracker.process_epoch(Epoch{t}, Epoch{0}, inactive);
  }
  std::size_t below = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto& rec = reg.at(ValidatorIndex{i});
    if (reg.is_active(ValidatorIndex{i}, Epoch{mid_wave}) &&
        rec.balance <= spec.ejection_balance) {
      ++below;
    }
  }
  EXPECT_GT(below, 0u);  // the queue is backed up
  EXPECT_FALSE(
      tracker.process_epoch(Epoch{mid_wave + 1}, Epoch{0}, inactive)
          .ejected.empty());
}

TEST(ChurnAblation, PartitionRecoveryDelayed) {
  // Scenario 5.1 at p0 = 0.5: the branch recovers 2/3 via the ejection
  // wave.  With the churn limit (4/epoch over 500 inactive validators)
  // recovery needs only the first ~25 removals (the ratio sits just
  // under 2/3 at the threshold epoch), so the supermajority slips by a
  // handful of epochs — while the wave itself smears over ~125 epochs
  // (previous test).
  sim::PartitionSimConfig instant;
  instant.n_validators = 1000;
  instant.strategy = sim::Strategy::kNone;
  instant.max_epochs = 6000;
  const auto fast = sim::run_partition_sim(instant);

  sim::PartitionSimConfig churned = instant;
  churned.spec.use_churn_limit = true;
  const auto slow = sim::run_partition_sim(churned);

  ASSERT_GT(fast.branch[0].supermajority_epoch, 0);
  ASSERT_GT(slow.branch[0].supermajority_epoch, 0);
  const auto delay = slow.branch[0].supermajority_epoch -
                     fast.branch[0].supermajority_epoch;
  EXPECT_GT(delay, 2);
  EXPECT_LT(delay, 40);
}

}  // namespace
}  // namespace leak::penalties
