// Tests for the fault-injection harness: strict JSON round-trip of
// FaultSchedule (hostile inputs must fail fast with actionable
// messages), the FaultDriver's two compilation directions, golden
// bit-identity of the compiled partition-then-heal schedules against the
// legacy heal knobs, the cascading staggered-open arc vs the analytic
// recovery forms, and the p0-with-k-branches footgun.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <variant>

#include "src/analytic/config.hpp"
#include "src/analytic/recovery.hpp"
#include "src/faults/driver.hpp"
#include "src/faults/schedule.hpp"
#include "src/sim/partition_sim.hpp"

namespace leak::faults {
namespace {

// ---------------------------------------------------------------------------
// JSON round-trip

FaultSchedule every_kind_schedule() {
  FaultSchedule s;
  s.events.push_back(PartitionOpen{1, 1});
  s.events.push_back(PartitionOpen{40, 2});
  s.events.push_back(LatencyEpisode{50.0, 8.5, LinkClass::kCross, 2.5});
  s.events.push_back(LossEpisode{70.0, 4.0, LinkClass::kIntra, 0.25});
  s.events.push_back(ValidatorOutage{90, 10, 0.5});
  s.events.push_back(PartitionHeal{120, 1, 0});
  s.events.push_back(PartitionHeal{150, 2, 0});
  return s;
}

TEST(FaultScheduleJson, RoundTripPreservesEveryEventKind) {
  const FaultSchedule s = every_kind_schedule();
  s.validate();
  const std::string text = s.dump();
  const FaultSchedule back = FaultSchedule::from_string(text);
  ASSERT_EQ(back.events.size(), s.events.size());
  // Serialization is deterministic, so one more trip is a fixed point.
  EXPECT_EQ(back.dump(), text);

  const auto& open = std::get<PartitionOpen>(back.events[1]);
  EXPECT_EQ(open.epoch, 40u);
  EXPECT_EQ(open.branch, 2u);
  const auto& lat = std::get<LatencyEpisode>(back.events[2]);
  EXPECT_DOUBLE_EQ(lat.from_epoch, 50.0);
  EXPECT_DOUBLE_EQ(lat.span_epochs, 8.5);
  EXPECT_EQ(lat.link, LinkClass::kCross);
  EXPECT_DOUBLE_EQ(lat.factor, 2.5);
  const auto& loss = std::get<LossEpisode>(back.events[3]);
  EXPECT_EQ(loss.link, LinkClass::kIntra);
  EXPECT_DOUBLE_EQ(loss.drop, 0.25);
  const auto& outage = std::get<ValidatorOutage>(back.events[4]);
  EXPECT_EQ(outage.from_epoch, 90u);
  EXPECT_EQ(outage.span_epochs, 10u);
  EXPECT_DOUBLE_EQ(outage.cohort, 0.5);
  const auto& heal = std::get<PartitionHeal>(back.events[5]);
  EXPECT_EQ(heal.epoch, 120u);
  EXPECT_EQ(heal.into, 0u);
}

TEST(FaultScheduleJson, EventStartIsTheOrderingKey) {
  EXPECT_DOUBLE_EQ(event_start(PartitionOpen{7, 1}), 7.0);
  EXPECT_DOUBLE_EQ(event_start(PartitionHeal{9, 1, 0}), 9.0);
  EXPECT_DOUBLE_EQ(event_start(LatencyEpisode{1.5, 2.0, LinkClass::kAll, 2.0}),
                   1.5);
  EXPECT_DOUBLE_EQ(event_start(LossEpisode{3.25, 1.0, LinkClass::kAll, 0.1}),
                   3.25);
  EXPECT_DOUBLE_EQ(event_start(ValidatorOutage{11, 4, 0.2}), 11.0);
}

// Every hostile document must throw std::invalid_argument whose
// message names the offending construct -- never parse silently.
void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    (void)FaultSchedule::from_string(text);
    FAIL() << "accepted hostile schedule: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message \"" << e.what() << "\" does not mention \"" << needle
        << "\"";
  }
}

TEST(FaultScheduleJson, RejectsUnknownTopLevelKey) {
  expect_rejected(R"({"version":1,"events":[],"extra":1})", "unknown key");
}

TEST(FaultScheduleJson, RejectsUnsupportedVersion) {
  expect_rejected(R"({"version":2,"events":[]})", "version");
  expect_rejected(R"({"events":[]})", "version");
}

TEST(FaultScheduleJson, RejectsUnknownEventKind) {
  expect_rejected(
      R"({"version":1,"events":[{"kind":"meteor-strike","epoch":3}]})",
      "unknown event kind");
}

TEST(FaultScheduleJson, RejectsTypoedEventKey) {
  // "facter" must not silently mean factor = 1.
  expect_rejected(R"({"version":1,"events":[{"kind":"latency",)"
                  R"("from_epoch":1,"span_epochs":2,"link":"all",)"
                  R"("facter":3.0}]})",
                  "unknown key \"facter\"");
}

TEST(FaultScheduleJson, RejectsMissingAndMistypedKeys) {
  expect_rejected(R"({"version":1,"events":[{"kind":"partition-open"}]})",
                  "missing key \"epoch\"");
  expect_rejected(
      R"({"version":1,"events":[{"kind":"partition-open","epoch":"soon",)"
      R"("branch":1}]})",
      "non-negative integer epoch");
  expect_rejected(
      R"({"version":1,"events":[{"kind":"loss","from_epoch":1,)"
      R"("span_epochs":2,"link":"sideways","drop":0.1}]})",
      "unknown link class");
}

TEST(FaultScheduleJson, RejectsNonMonotoneTimeline) {
  expect_rejected(
      R"({"version":1,"events":[)"
      R"({"kind":"partition-open","epoch":10,"branch":1},)"
      R"({"kind":"partition-open","epoch":5,"branch":2}]})",
      "ordered by start epoch");
}

TEST(FaultScheduleJson, RejectsPartitionAbuse) {
  // Double open.
  expect_rejected(
      R"({"version":1,"events":[)"
      R"({"kind":"partition-open","epoch":1,"branch":1},)"
      R"({"kind":"partition-open","epoch":2,"branch":1}]})",
      "opened twice");
  // Overlapping heals for one branch.
  expect_rejected(
      R"({"version":1,"events":[)"
      R"({"kind":"partition-open","epoch":1,"branch":1},)"
      R"({"kind":"partition-heal","epoch":10,"branch":1,"into":0},)"
      R"({"kind":"partition-heal","epoch":20,"branch":1,"into":0}]})",
      "overlapping heals");
  // Heal without an open.
  expect_rejected(
      R"({"version":1,"events":[)"
      R"({"kind":"partition-heal","epoch":10,"branch":1,"into":0}]})",
      "without a prior partition-open");
  // Heal not after its open.
  expect_rejected(
      R"({"version":1,"events":[)"
      R"({"kind":"partition-open","epoch":10,"branch":1},)"
      R"({"kind":"partition-heal","epoch":10,"branch":1,"into":0}]})",
      "must be after the branch opened");
  // Branch-to-branch merges are reserved.
  expect_rejected(
      R"({"version":1,"events":[)"
      R"({"kind":"partition-open","epoch":1,"branch":1},)"
      R"({"kind":"partition-open","epoch":1,"branch":2},)"
      R"({"kind":"partition-heal","epoch":10,"branch":2,"into":1}]})",
      "canonical branch 0");
  // Sparse branch ids have no meaning for the simulator.
  expect_rejected(
      R"({"version":1,"events":[)"
      R"({"kind":"partition-open","epoch":1,"branch":2}]})",
      "contiguous from 1");
}

TEST(FaultScheduleJson, RejectsDegenerateEpisodes) {
  expect_rejected(
      R"({"version":1,"events":[{"kind":"latency","from_epoch":1,)"
      R"("span_epochs":0,"link":"all","factor":2.0}]})",
      "span_epochs must be positive");
  expect_rejected(
      R"({"version":1,"events":[{"kind":"latency","from_epoch":1,)"
      R"("span_epochs":2,"link":"all","factor":-1.0}]})",
      "factor must be > 0");
  expect_rejected(
      R"({"version":1,"events":[{"kind":"loss","from_epoch":1,)"
      R"("span_epochs":2,"link":"all","drop":1.5}]})",
      "probability in [0, 1]");
  expect_rejected(
      R"({"version":1,"events":[{"kind":"outage","from_epoch":1,)"
      R"("span_epochs":2,"cohort":0.0}]})",
      "cohort must be in (0, 1]");
}

TEST(FaultScheduleJson, RejectsCollidingWeatherEpisodes) {
  // "all" can afflict the same links as "cross": stacking is ambiguous.
  expect_rejected(
      R"({"version":1,"events":[)"
      R"({"kind":"loss","from_epoch":1,"span_epochs":5,"link":"all",)"
      R"("drop":0.1},)"
      R"({"kind":"loss","from_epoch":3,"span_epochs":5,"link":"cross",)"
      R"("drop":0.2}]})",
      "overlapping loss episodes");
}

TEST(FaultScheduleJson, DisjointLinkClassesMayOverlapInTime) {
  const auto s = FaultSchedule::from_string(
      R"({"version":1,"events":[)"
      R"({"kind":"latency","from_epoch":1,"span_epochs":5,"link":"intra",)"
      R"("factor":2.0},)"
      R"({"kind":"latency","from_epoch":2,"span_epochs":5,"link":"cross",)"
      R"("factor":4.0}]})");
  EXPECT_EQ(s.events.size(), 2u);
}

TEST(FaultScheduleJson, RejectsTruncatedDocument) {
  EXPECT_THROW((void)FaultSchedule::from_string(
                   R"({"version":1,"events":[{"kind":"partition-)"),
               std::invalid_argument);
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(FaultScheduleJson, LoadFileErrorsArePrefixedWithThePath) {
  const std::string missing = temp_path("no_such_schedule.json");
  try {
    (void)FaultSchedule::load_file(missing);
    FAIL() << "loaded a missing file";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }

  // A torn write (truncated mid-document) must fail the strict parse,
  // again naming the file.
  const std::string torn = temp_path("torn_schedule.json");
  {
    std::ofstream out(torn);
    out << R"({"version":1,"events":[{"kind":"loss","from_)";
  }
  try {
    (void)FaultSchedule::load_file(torn);
    FAIL() << "parsed a torn schedule file";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(torn), std::string::npos);
  }
  std::remove(torn.c_str());
}

TEST(FaultScheduleJson, LoadFileRoundTripsADumpedSchedule) {
  const FaultSchedule s = every_kind_schedule();
  const std::string path = temp_path("schedule_roundtrip.json");
  {
    std::ofstream out(path);
    out << s.dump();
  }
  const FaultSchedule back = FaultSchedule::load_file(path);
  EXPECT_EQ(back.dump(), s.dump());
  std::remove(path.c_str());
}

TEST(FaultScheduleJson, FactoriesBuildValidTimelines) {
  const auto arc = FaultSchedule::staggered_partition(3, 0, 2000, 500);
  ASSERT_EQ(arc.events.size(), 4u);
  EXPECT_EQ(std::get<PartitionOpen>(arc.events[0]).epoch, 1u);
  EXPECT_EQ(std::get<PartitionOpen>(arc.events[1]).epoch, 1u);
  EXPECT_EQ(std::get<PartitionHeal>(arc.events[2]).epoch, 2000u);
  EXPECT_EQ(std::get<PartitionHeal>(arc.events[3]).epoch, 2500u);
  EXPECT_EQ(arc.max_branch(), 2u);

  const auto cascade = FaultSchedule::staggered_partition(3, 300, 2500, 500);
  ASSERT_EQ(cascade.events.size(), 4u);
  EXPECT_EQ(std::get<PartitionOpen>(cascade.events[1]).epoch, 301u);
  EXPECT_EQ(std::get<PartitionHeal>(cascade.events[3]).epoch, 3000u);

  // No-heal family: opens only.
  const auto open_only = FaultSchedule::staggered_partition(4, 100, 0, 0);
  EXPECT_EQ(open_only.events.size(), 3u);
  EXPECT_EQ(open_only.max_branch(), 3u);

  EXPECT_THROW((void)FaultSchedule::staggered_partition(1, 0, 0, 0),
               std::invalid_argument);
}

TEST(FaultScheduleJson, ValidateRejectsBranchIdsAbove255) {
  // The parser caps branch ids at 255; schedules built in code must hit
  // the same bound instead of indexing past validate's per-branch table.
  EXPECT_THROW((void)FaultSchedule::staggered_partition(300, 0, 0, 0),
               std::invalid_argument);
  EXPECT_NO_THROW((void)FaultSchedule::staggered_partition(256, 0, 0, 0));
  FaultSchedule heal_only;
  heal_only.events.push_back(PartitionHeal{10, 256, 0});
  try {
    heal_only.validate();
    FAIL() << "branch 256 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("must be a branch id in [0, 255]"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// FaultDriver: compile_partition

TEST(FaultDriver, CompilePartitionPopulatesWindowsAndClearsLegacyKnobs) {
  sim::PartitionSimConfig cfg;
  cfg.n_validators = 120;
  compile_partition(FaultSchedule::staggered_partition(3, 300, 2500, 500),
                    &cfg);
  EXPECT_EQ(cfg.branches, 3u);
  ASSERT_EQ(cfg.windows.size(), 2u);
  EXPECT_EQ(cfg.windows[0].open_epoch, 1u);
  EXPECT_EQ(cfg.windows[0].heal_epoch, 2500u);
  EXPECT_EQ(cfg.windows[1].open_epoch, 301u);
  EXPECT_EQ(cfg.windows[1].heal_epoch, 3000u);
  EXPECT_EQ(cfg.n_validators, 120u);  // untouched
}

TEST(FaultDriver, CompilePartitionCarriesOutages) {
  FaultSchedule s = FaultSchedule::staggered_partition(2, 0, 600, 0);
  s.events.push_back(ValidatorOutage{900, 150, 0.5});
  sim::PartitionSimConfig cfg;
  compile_partition(s, &cfg);
  ASSERT_EQ(cfg.outages.size(), 1u);
  EXPECT_EQ(cfg.outages[0].from_epoch, 900u);
  EXPECT_EQ(cfg.outages[0].span_epochs, 150u);
  EXPECT_DOUBLE_EQ(cfg.outages[0].cohort, 0.5);
}

TEST(FaultDriver, CompilePartitionRejectsWeatherAndEmptySchedules) {
  sim::PartitionSimConfig cfg;
  EXPECT_THROW(compile_partition(FaultSchedule{}, &cfg),
               std::invalid_argument);

  FaultSchedule weather = FaultSchedule::staggered_partition(2, 0, 0, 0);
  weather.events.push_back(LatencyEpisode{10.0, 2.0, LinkClass::kAll, 3.0});
  try {
    compile_partition(weather, &cfg);
    FAIL() << "compiled a latency episode into the partition path";
  } catch (const std::invalid_argument& e) {
    // The message must route the user to the right backend.
    EXPECT_NE(std::string(e.what()).find("apply_network"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// FaultDriver: apply_network

TEST(FaultDriver, ApplyNetworkConvertsEpochsToSeconds) {
  FaultSchedule s;
  s.events.push_back(LatencyEpisode{2.0, 2.0, LinkClass::kIntra, 3.0});
  s.events.push_back(LossEpisode{4.0, 2.0, LinkClass::kCross, 0.15});
  net::NetworkConfig cfg;
  cfg.num_nodes = 1;
  apply_network(s, 384.0, &cfg);  // 32 slots * 12 s
  ASSERT_EQ(cfg.latency_episodes.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.latency_episodes[0].from, 768.0);
  EXPECT_DOUBLE_EQ(cfg.latency_episodes[0].to, 1536.0);
  EXPECT_EQ(cfg.latency_episodes[0].link, net::LinkClass::kIntra);
  EXPECT_DOUBLE_EQ(cfg.latency_episodes[0].factor, 3.0);
  ASSERT_EQ(cfg.loss_episodes.size(), 1u);
  EXPECT_DOUBLE_EQ(cfg.loss_episodes[0].from, 1536.0);
  EXPECT_DOUBLE_EQ(cfg.loss_episodes[0].to, 2304.0);
  EXPECT_EQ(cfg.loss_episodes[0].link, net::LinkClass::kCross);
  EXPECT_DOUBLE_EQ(cfg.loss_episodes[0].drop, 0.15);
}

TEST(FaultDriver, ApplyNetworkRejectsPartitionEventsAndBadScale) {
  net::NetworkConfig cfg;
  cfg.num_nodes = 1;
  try {
    apply_network(FaultSchedule::staggered_partition(2, 0, 0, 0), 384.0,
                  &cfg);
    FAIL() << "applied a partition event to the network path";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("compile_partition"),
              std::string::npos);
  }
  FaultSchedule weather;
  weather.events.push_back(LossEpisode{1.0, 1.0, LinkClass::kAll, 0.1});
  EXPECT_THROW(apply_network(weather, 0.0, &cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden bit-identity: legacy knobs vs the compiled schedule

void expect_same_result(const sim::PartitionSimResult& a,
                        const sim::PartitionSimResult& b) {
  ASSERT_EQ(a.branch.size(), b.branch.size());
  for (std::size_t i = 0; i < a.branch.size(); ++i) {
    const auto& x = a.branch[i];
    const auto& y = b.branch[i];
    EXPECT_EQ(x.supermajority_epoch, y.supermajority_epoch) << "branch " << i;
    EXPECT_EQ(x.finalization_epoch, y.finalization_epoch) << "branch " << i;
    EXPECT_EQ(x.beta_peak, y.beta_peak) << "branch " << i;
    EXPECT_EQ(x.beta_peak_epoch, y.beta_peak_epoch) << "branch " << i;
    EXPECT_EQ(x.honest_ejection_epoch, y.honest_ejection_epoch)
        << "branch " << i;
    EXPECT_EQ(x.healed_epoch, y.healed_epoch) << "branch " << i;
    EXPECT_EQ(x.ratio_trajectory, y.ratio_trajectory) << "branch " << i;
    EXPECT_EQ(x.beta_trajectory, y.beta_trajectory) << "branch " << i;
  }
  EXPECT_EQ(a.conflicting_finalization_epoch, b.conflicting_finalization_epoch);
  EXPECT_EQ(a.beta_exceeded_third_both, b.beta_exceeded_third_both);
  EXPECT_EQ(a.n_byzantine, b.n_byzantine);
  EXPECT_EQ(a.n_honest_per_branch, b.n_honest_per_branch);
  EXPECT_EQ(a.heal_complete_epoch, b.heal_complete_epoch);
  EXPECT_EQ(a.recovery_complete_epoch, b.recovery_complete_epoch);
  EXPECT_EQ(a.residual_loss_total_eth, b.residual_loss_total_eth);
  ASSERT_EQ(a.recovery.size(), b.recovery.size());
  for (std::size_t i = 0; i < a.recovery.size(); ++i) {
    const auto& x = a.recovery[i];
    const auto& y = b.recovery[i];
    EXPECT_EQ(x.from_branch, y.from_branch);
    EXPECT_EQ(x.class_size, y.class_size);
    EXPECT_EQ(x.healed_epoch, y.healed_epoch);
    EXPECT_EQ(x.return_epoch, y.return_epoch);
    EXPECT_EQ(x.ejected_before_return, y.ejected_before_return);
    EXPECT_EQ(x.score_at_return, y.score_at_return);
    EXPECT_EQ(x.stake_at_return_eth, y.stake_at_return_eth);
    EXPECT_EQ(x.residual_loss_eth, y.residual_loss_eth);
    EXPECT_EQ(x.recovery_epochs, y.recovery_epochs);
  }
}

TEST(FaultDriverGolden, LegacyKnobsAndCompiledScheduleAreBitIdentical) {
  struct Case {
    std::uint32_t branches;
    std::size_t heal_epoch;
    std::size_t heal_stagger;
  };
  // An open stagger of 0 is the paper's arc: every branch opens at epoch 1
  // and branch b heals at heal_epoch + (b-1) * heal_stagger (never when
  // heal_epoch is 0).  Without heals, the compiled windows must run
  // bit-identically to a config with no windows at all.
  for (const Case c : {Case{2, 1200, 0}, Case{3, 1200, 300},
                       Case{4, 900, 200}, Case{3, 0, 0}}) {
    sim::PartitionSimConfig compiled;
    compiled.n_validators = 150;
    compiled.max_epochs = 3000;
    compile_partition(
        FaultSchedule::staggered_partition(c.branches, 0, c.heal_epoch,
                                           c.heal_stagger),
        &compiled);
    SCOPED_TRACE("branches=" + std::to_string(c.branches) +
                 " heal=" + std::to_string(c.heal_epoch) + "+" +
                 std::to_string(c.heal_stagger));
    ASSERT_EQ(compiled.branches, c.branches);
    ASSERT_EQ(compiled.windows.size(), c.branches - 1);
    for (std::uint32_t b = 1; b < c.branches; ++b) {
      EXPECT_EQ(compiled.windows[b - 1].open_epoch, 1u) << "b=" << b;
      const std::size_t heal =
          c.heal_epoch == 0 ? 0 : c.heal_epoch + (b - 1) * c.heal_stagger;
      EXPECT_EQ(compiled.windows[b - 1].heal_epoch, heal) << "b=" << b;
    }
    EXPECT_TRUE(compiled.outages.empty());
    if (c.heal_epoch != 0) continue;

    sim::PartitionSimConfig legacy = compiled;
    legacy.windows.clear();
    expect_same_result(sim::run_partition_sim(legacy),
                       sim::run_partition_sim(compiled));

    // The randomized-split trials must agree trial for trial too.
    sim::PartitionTrialsConfig ta;
    ta.base = legacy;
    ta.trials = 4;
    ta.seed = 99;
    sim::PartitionTrialsConfig tb = ta;
    tb.base = compiled;
    const auto ra = sim::run_partition_trials(ta);
    const auto rb = sim::run_partition_trials(tb);
    EXPECT_EQ(ra.conflict_epochs, rb.conflict_epochs);
    EXPECT_EQ(ra.beta_peaks, rb.beta_peaks);
    EXPECT_EQ(ra.residual_losses_eth, rb.residual_losses_eth);
    EXPECT_EQ(ra.recovery_epochs, rb.recovery_epochs);
  }
}

// ---------------------------------------------------------------------------
// Cascading opens: re-entrant leak vs the analytic recovery forms

TEST(FaultCascade, StaggeredOpensMatchAnalyticRecoveryPerClass) {
  // The cascading-partitions scenario geometry: branch 2 opens 300
  // epochs after branch 1, heals arrive staggered.  Each healed class
  // must still match the exact discrete recurrence (sub-0.1% of its
  // stake) and the closed form (within its discretization error).
  sim::PartitionSimConfig cfg;
  cfg.n_validators = 120;
  cfg.max_epochs = 6000;
  compile_partition(FaultSchedule::staggered_partition(3, 300, 2500, 500),
                    &cfg);
  const auto r = sim::run_partition_sim(cfg);
  ASSERT_GE(r.branch[0].finalization_epoch, 0);
  ASSERT_GT(r.recovery_complete_epoch, 3000);
  const auto acfg = analytic::AnalyticConfig::paper();
  std::size_t checked = 0;
  for (const auto& rec : r.recovery) {
    if (rec.return_epoch < 0 || rec.ejected_before_return) continue;
    ASSERT_GT(rec.score_at_return, 0.0) << "b=" << rec.from_branch;
    const double discrete = analytic::residual_loss_discrete(
        rec.score_at_return, rec.stake_at_return_eth, acfg);
    const double closed = analytic::residual_loss(
        rec.score_at_return, rec.stake_at_return_eth, acfg);
    EXPECT_NEAR(rec.residual_loss_eth, discrete,
                1e-3 * rec.stake_at_return_eth)
        << "b=" << rec.from_branch;
    EXPECT_NEAR(rec.residual_loss_eth, closed, 0.01 * (closed + 0.01))
        << "b=" << rec.from_branch;
    ++checked;
  }
  EXPECT_GE(checked, 1u);
}

TEST(FaultCascade, OutageReentersTheLeakAndDelaysRecovery) {
  // Baseline: two branches heal at 600, recovery drains undisturbed.
  sim::PartitionSimConfig plain;
  plain.n_validators = 150;
  plain.max_epochs = 4000;
  compile_partition(FaultSchedule::staggered_partition(2, 0, 600, 0), &plain);
  const auto base = sim::run_partition_sim(plain);
  ASSERT_GT(base.recovery_complete_epoch, 600);

  // Same arc plus a half-cohort outage at 650, inside the drain
  // window: supermajority is lost mid-recovery, the leak re-enters,
  // and the full recovery can only complete after the outage lifts.
  FaultSchedule s = FaultSchedule::staggered_partition(2, 0, 600, 0);
  s.events.push_back(ValidatorOutage{650, 150, 0.5});
  sim::PartitionSimConfig cfg;
  cfg.n_validators = 150;
  cfg.max_epochs = 4000;
  compile_partition(s, &cfg);
  const auto r = sim::run_partition_sim(cfg);
  ASSERT_GE(r.branch[0].finalization_epoch, 0);
  EXPECT_GT(r.recovery_complete_epoch, 800);  // after the outage window
  EXPECT_GT(r.recovery_complete_epoch, base.recovery_complete_epoch);
}

TEST(FaultCascade, NonDefaultP0WithManyBranchesIsRejected) {
  // The k-branch split is uniform; silently ignoring p0 was the old
  // footgun.  Both entry points must refuse the combination.
  sim::PartitionSimConfig cfg;
  cfg.branches = 3;
  cfg.p0 = 0.25;
  EXPECT_THROW((void)sim::run_partition_sim(cfg), std::invalid_argument);
  sim::PartitionTrialsConfig tcfg;
  tcfg.base = cfg;
  tcfg.trials = 2;
  EXPECT_THROW((void)sim::run_partition_trials(tcfg), std::invalid_argument);
  // p0 stays meaningful for the paper's two-branch scenarios.
  cfg.branches = 2;
  cfg.max_epochs = 50;
  EXPECT_NO_THROW((void)sim::run_partition_sim(cfg));
}

}  // namespace
}  // namespace leak::faults
