// Crash/recovery tests for the sweep service — the acceptance
// criterion of the serve subsystem: a job kill -9'd mid-sweep and
// resumed produces a merged artifact bit-identical (canonical form) to
// an uninterrupted run, a completed job re-runs zero cells, an
// interrupted budget run picks up exactly where it stopped, and a
// worker that dies mid-cell is respawned and its cell re-run.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "src/faults/schedule.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/sweep.hpp"
#include "src/serve/job.hpp"
#include "src/serve/service.hpp"
#include "src/serve/store.hpp"
#include "src/serve/worker.hpp"
#include "tests/path_scale.hpp"

namespace leak::serve {
namespace {

using scenario::builtin_registry;

class ServeResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "serve_resume_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from prior runs
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A 6-cell bouncing-mc job (paths respects LEAK_TEST_PATH_SCALE
  /// like every other acceptance test).  The kill -9 test passes a
  /// large `base_paths` so each cell runs long enough for the kill to
  /// land mid-sweep; the scheduling-only tests keep it small.
  [[nodiscard]] JobSpec make_job(std::size_t base_paths = 256) const {
    const auto& sc = *builtin_registry().find("bouncing-mc");
    JobSpec job;
    job.scenario = "bouncing-mc";
    job.base = sc.spec().defaults();
    job.base.set("paths",
                 static_cast<std::int64_t>(env::scaled_count(base_paths)));
    job.base.set("epochs", std::int64_t{1500});
    scenario::SweepAxis beta_axis, p0_axis;
    EXPECT_FALSE(scenario::parse_sweep_axis(sc.spec(), "beta0=0.3,0.33,0.35",
                                            &beta_axis)
                     .has_value());
    EXPECT_FALSE(
        scenario::parse_sweep_axis(sc.spec(), "p0=0.4,0.5", &p0_axis)
            .has_value());
    job.axes = {beta_axis, p0_axis};
    job.config.workers = 2;
    return job;
  }

  /// Submit + run the job to completion in `subdir`, return the
  /// canonical merged artifact's exact serialization.
  [[nodiscard]] std::string clean_merged_dump(const std::string& subdir,
                                              std::size_t base_paths = 256) {
    JobService service(builtin_registry(), dir_ + "/" + subdir);
    std::string error;
    const auto id = service.submit(make_job(base_paths), &error);
    EXPECT_TRUE(id.has_value()) << error;
    RunOptions opts;
    opts.backoff_ms = 0;
    const auto stats = service.run(*id, opts, &error);
    EXPECT_TRUE(stats.has_value()) << error;
    EXPECT_TRUE(stats->completed);
    const auto merged = service.merged(*id, /*canonical=*/true, &error);
    EXPECT_TRUE(merged.has_value()) << error;
    return merged->dump(2);
  }

  std::string dir_;
};

// The headline acceptance test: SIGKILL the serving process mid-sweep,
// resume in a fresh service, and require the canonical merged artifact
// to be byte-identical to an uninterrupted run's.
TEST_F(ServeResumeTest, Sigkilled9MidSweepResumesBitIdentically) {
  // ~70-700 ms per cell depending on LEAK_TEST_PATH_SCALE: the kill
  // below (sent as soon as the first record is durable) reliably
  // lands with most of the sweep still missing.
  constexpr std::size_t kKillPaths = 40000;
  const std::string reference = clean_merged_dump("clean", kKillPaths);

  JobService service(builtin_registry(), dir_ + "/killed");
  std::string error;
  const auto id = service.submit(make_job(kKillPaths), &error);
  ASSERT_TRUE(id.has_value()) << error;

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Serving process: run the job; the parent SIGKILLs us mid-sweep.
    JobService child_service(builtin_registry(), dir_ + "/killed");
    RunOptions opts;
    opts.backoff_ms = 0;
    std::string child_error;
    (void)child_service.run(*id, opts, &child_error);
    ::_exit(0);
  }
  // Wait for at least one durable record, then kill -9 the service.
  const ResultsStore store(service.job_dir(*id) + "/results.jsonl");
  for (int i = 0; i < 4000 && store.scan().records.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Resume in-process: only the missing cells run, and the merged
  // artifact is canonically byte-identical to the clean run's.
  RunOptions opts;
  opts.backoff_ms = 0;
  const auto stats = service.run(*id, opts, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->already_done + stats->executed, stats->total_cells);
  // The kill really landed mid-sweep: some cells survived in the
  // store, some had to be re-run.
  EXPECT_GT(stats->already_done, 0u);
  EXPECT_GT(stats->executed, 0u);
  const auto merged = service.merged(*id, /*canonical=*/true, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->dump(2), reference);
}

// The fault-schedule variant of the headline test: a job whose cells
// carry an inline `faults` schedule (a cascading staggered-open arc)
// must survive kill -9 and resume bit-identically — the schedule
// travels intact through the manifest, the worker cells and the
// resume fingerprint.
TEST_F(ServeResumeTest, FaultScheduleJobSigkilledResumesBitIdentically) {
  const auto& sc = *builtin_registry().find("cascading-partitions");
  JobSpec job;
  job.scenario = "cascading-partitions";
  job.base = sc.spec().defaults();
  job.base.set("n_validators", std::int64_t{120});
  job.base.set("max_epochs", std::int64_t{4000});
  job.base.set("paths",
               static_cast<std::int64_t>(env::scaled_count(16)));
  job.base.set("faults", faults::FaultSchedule::staggered_partition(
                             3, 100, 800, 200)
                             .dump());
  scenario::SweepAxis seed_axis, beta_axis;
  ASSERT_FALSE(
      scenario::parse_sweep_axis(sc.spec(), "seed=1,2,3", &seed_axis)
          .has_value());
  ASSERT_FALSE(
      scenario::parse_sweep_axis(sc.spec(), "beta0=0.0,0.05", &beta_axis)
          .has_value());
  job.axes = {seed_axis, beta_axis};
  job.config.workers = 2;

  const auto run_clean = [&](const std::string& subdir) -> std::string {
    JobService service(builtin_registry(), dir_ + "/" + subdir);
    std::string error;
    const auto id = service.submit(job, &error);
    EXPECT_TRUE(id.has_value()) << error;
    RunOptions opts;
    opts.backoff_ms = 0;
    const auto stats = service.run(*id, opts, &error);
    EXPECT_TRUE(stats.has_value()) << error;
    EXPECT_TRUE(stats->completed);
    const auto merged = service.merged(*id, /*canonical=*/true, &error);
    EXPECT_TRUE(merged.has_value()) << error;
    return merged->dump(2);
  };
  const std::string reference = run_clean("clean");

  JobService service(builtin_registry(), dir_ + "/killed");
  std::string error;
  const auto id = service.submit(job, &error);
  ASSERT_TRUE(id.has_value()) << error;

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    JobService child_service(builtin_registry(), dir_ + "/killed");
    RunOptions opts;
    opts.backoff_ms = 0;
    std::string child_error;
    (void)child_service.run(*id, opts, &child_error);
    ::_exit(0);
  }
  const ResultsStore store(service.job_dir(*id) + "/results.jsonl");
  for (int i = 0; i < 4000 && store.scan().records.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  RunOptions opts;
  opts.backoff_ms = 0;
  const auto stats = service.run(*id, opts, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->already_done + stats->executed, stats->total_cells);
  EXPECT_GT(stats->already_done, 0u);
  const auto merged = service.merged(*id, /*canonical=*/true, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->dump(2), reference);
}

TEST_F(ServeResumeTest, CompletedJobReRunsZeroCells) {
  JobService service(builtin_registry(), dir_);
  std::string error;
  const auto id = service.submit(make_job(), &error);
  ASSERT_TRUE(id.has_value()) << error;
  RunOptions opts;
  opts.backoff_ms = 0;
  const auto first = service.run(*id, opts, &error);
  ASSERT_TRUE(first.has_value()) << error;
  ASSERT_TRUE(first->completed);
  EXPECT_EQ(first->executed, first->total_cells);

  const auto again = service.run(*id, opts, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_TRUE(again->completed);
  EXPECT_EQ(again->executed, 0u);
  EXPECT_EQ(again->already_done, again->total_cells);
  EXPECT_EQ(again->respawns, 0u);
}

TEST_F(ServeResumeTest, MaxCellsBudgetInterruptsAndResumesExactly) {
  const std::string reference = clean_merged_dump("clean");
  JobService service(builtin_registry(), dir_ + "/budget");
  std::string error;
  const auto id = service.submit(make_job(), &error);
  ASSERT_TRUE(id.has_value()) << error;

  RunOptions partial;
  partial.backoff_ms = 0;
  partial.max_cells = 2;
  const auto first = service.run(*id, partial, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_FALSE(first->completed);
  EXPECT_EQ(first->executed, 2u);
  const auto st = service.status(*id, &error);
  ASSERT_TRUE(st.has_value()) << error;
  EXPECT_EQ(st->done_cells, 2u);
  EXPECT_FALSE(st->merged);
  // An incomplete job has no merged artifact yet.
  EXPECT_FALSE(service.merged(*id, false, &error).has_value());

  RunOptions rest;
  rest.backoff_ms = 0;
  const auto second = service.run(*id, rest, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_TRUE(second->completed);
  EXPECT_EQ(second->already_done, 2u);
  EXPECT_EQ(second->executed, second->total_cells - 2u);
  const auto merged = service.merged(*id, /*canonical=*/true, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->dump(2), reference);
}

TEST_F(ServeResumeTest, DeadWorkerIsRespawnedAndItsCellRerun) {
  const std::string reference = clean_merged_dump("clean");
  JobService service(builtin_registry(), dir_ + "/crashy");
  std::string error;
  JobSpec job = make_job();
  job.config.workers = 1;
  const auto id = service.submit(job, &error);
  ASSERT_TRUE(id.has_value()) << error;

  // The generation-0 worker _exit(42)s before its second cell; the
  // respawned generation runs normally.
  RunOptions opts;
  opts.backoff_ms = 0;
  opts.test_worker_abort_after = 1;
  const auto stats = service.run(*id, opts, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_TRUE(stats->completed);
  EXPECT_GE(stats->respawns, 1u);
  EXPECT_EQ(stats->executed, stats->total_cells);
  const auto merged = service.merged(*id, /*canonical=*/true, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->dump(2), reference);
}

TEST_F(ServeResumeTest, TornTailIsRepairedOnResume) {
  JobService service(builtin_registry(), dir_);
  std::string error;
  const auto id = service.submit(make_job(), &error);
  ASSERT_TRUE(id.has_value()) << error;
  RunOptions partial;
  partial.backoff_ms = 0;
  partial.max_cells = 1;
  ASSERT_TRUE(service.run(*id, partial, &error).has_value()) << error;

  // Simulate a write torn by kill -9: half a frame, no newline.
  ResultsStore store(service.job_dir(*id) + "/results.jsonl");
  {
    std::string torn = "12345678 {\"half";
    FILE* f = std::fopen(store.path().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(torn.data(), 1, torn.size(), f);
    std::fclose(f);
  }
  ASSERT_TRUE(store.scan().torn_tail);

  RunOptions rest;
  rest.backoff_ms = 0;
  const auto stats = service.run(*id, rest, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_TRUE(stats->completed);
  EXPECT_EQ(stats->already_done, 1u);
  EXPECT_FALSE(store.scan().torn_tail);
}

TEST_F(ServeResumeTest, FingerprintMismatchIsRejectedAtResume) {
  JobService service(builtin_registry(), dir_);
  std::string error;
  const auto id = service.submit(make_job(), &error);
  ASSERT_TRUE(id.has_value()) << error;

  // Forge a record with the right job/cell but a wrong fingerprint —
  // the drift guard against a store paired with an edited manifest.
  json::Value forged = json::Value::object();
  forged.set("type", "cell");
  forged.set("job", *id);
  forged.set("cell", std::int64_t{0});
  forged.set("fp", "00000000");
  forged.set("result", json::Value::object());
  ResultsStore store(service.job_dir(*id) + "/results.jsonl");
  ASSERT_TRUE(store.append(forged));

  RunOptions opts;
  opts.backoff_ms = 0;
  EXPECT_FALSE(service.run(*id, opts, &error).has_value());
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos) << error;

  // status reads the ledger through the same reader: the bad record
  // fails it (and list() reports it) instead of counting as missing.
  std::string status_error;
  EXPECT_FALSE(service.status(*id, &status_error).has_value());
  EXPECT_EQ(status_error, error);
  const auto jobs = service.list();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].error, error);
}

// The merged artifact and its table are the foreground sweep's: the
// same document (plus "job") and byte-identical CSV.  Serve pins each
// cell to one inner thread, so the foreground sweep does too.
TEST_F(ServeResumeTest, MergedEqualsForegroundSweep) {
  JobService service(builtin_registry(), dir_);
  const JobSpec job = make_job(64);
  std::string error;
  const auto id = service.submit(job, &error);
  ASSERT_TRUE(id.has_value()) << error;
  RunOptions opts;
  opts.backoff_ms = 0;
  ASSERT_TRUE(service.run(*id, opts, &error).has_value()) << error;
  const auto merged = service.merged(*id, /*canonical=*/true, &error);
  ASSERT_TRUE(merged.has_value()) << error;

  scenario::ParamSet base = job.base;
  base.set("threads", std::int64_t{1});
  const auto sweep = scenario::run_sweep(
      *builtin_registry().find(job.scenario), base, job.axes, {});
  json::Value foreground = JobService::canonicalize(sweep.to_json());
  foreground.set("job", *id);
  EXPECT_EQ(merged->dump(2), foreground.dump(2));
  EXPECT_EQ(scenario::sweep_table(*merged).to_csv(), sweep.to_csv());
}

TEST_F(ServeResumeTest, SubmitIsIdempotentAndStatusListsJobs) {
  JobService service(builtin_registry(), dir_);
  std::string error;
  const auto first = service.submit(make_job(), &error);
  ASSERT_TRUE(first.has_value()) << error;
  const auto second = service.submit(make_job(), &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_EQ(*first, *second);

  JobSpec single;
  single.scenario = "duty-cycle";
  single.base = builtin_registry().find("duty-cycle")->spec().defaults();
  const auto other = service.submit(single, &error);
  ASSERT_TRUE(other.has_value()) << error;
  EXPECT_NE(*other, *first);

  const auto jobs = service.list();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_LT(jobs[0].id, jobs[1].id);
  for (const auto& st : jobs) {
    EXPECT_EQ(st.done_cells, 0u);
    EXPECT_FALSE(st.merged);
    EXPECT_TRUE(st.error.empty()) << st.error;
  }
  EXPECT_FALSE(service.status("no-such-job", &error).has_value());

  // A manifest that no longer loads is listed with its error, not
  // dropped from the listing.
  const std::string manifest = service.job_dir(*other) + "/manifest.json";
  auto doc = json::Value::load_file(manifest, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  doc->set("zebra", std::int64_t{1});
  std::ofstream(manifest) << doc->dump(2) << "\n";
  const auto relisted = service.list();
  ASSERT_EQ(relisted.size(), 2u);
  for (const auto& st : relisted) {
    if (st.id == *other) {
      EXPECT_NE(st.error.find("\"zebra\""), std::string::npos) << st.error;
    } else {
      EXPECT_TRUE(st.error.empty()) << st.error;
    }
  }
}

TEST_F(ServeResumeTest, WorkerRecordPayloadShapes) {
  const JobSpec job = make_job();
  const json::Value err = error_record(job, 3, "boom");
  EXPECT_EQ(err.find("type")->as_string(), "error");
  EXPECT_EQ(err.find("job")->as_string(), job.id());
  EXPECT_EQ(err.find("cell")->as_int(), 3);
  EXPECT_EQ(err.find("what")->as_string(), "boom");
}

}  // namespace
}  // namespace leak::serve
