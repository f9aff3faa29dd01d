// Tests for the serve job manifest: JSON round-trip, content-addressed
// identity (same experiment -> same id; execution policy is not
// identity), cell parameter/fingerprint stability, and validation of
// hostile manifests.
#include <gtest/gtest.h>

#include <string>

#include "src/scenario/registry.hpp"
#include "src/scenario/sweep.hpp"
#include "src/serve/job.hpp"

namespace leak::serve {
namespace {

using scenario::builtin_registry;

[[nodiscard]] JobSpec make_job() {
  const auto& sc = *builtin_registry().find("bouncing-mc");
  JobSpec job;
  job.scenario = "bouncing-mc";
  job.base = sc.spec().defaults();
  job.base.set("paths", std::int64_t{16});
  job.base.set("epochs", std::int64_t{100});
  scenario::SweepAxis axis;
  EXPECT_FALSE(
      scenario::parse_sweep_axis(sc.spec(), "beta0=0.3,0.33", &axis)
          .has_value());
  job.axes.push_back(std::move(axis));
  return job;
}

TEST(ServeJobTest, ManifestRoundTripsThroughJson) {
  const JobSpec job = make_job();
  std::string error;
  const auto back =
      JobSpec::from_json(builtin_registry(), job.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->scenario, job.scenario);
  EXPECT_EQ(back->base.to_json().dump(), job.base.to_json().dump());
  EXPECT_EQ(back->config.vary_seed, job.config.vary_seed);
  EXPECT_EQ(back->config.workers, job.config.workers);
  EXPECT_EQ(back->config.max_retries, job.config.max_retries);
  EXPECT_EQ(back->id(), job.id());
  EXPECT_EQ(back->to_json().dump(), job.to_json().dump());
}

TEST(ServeJobTest, IdIsContentAddressed) {
  const JobSpec job = make_job();
  EXPECT_EQ(job.id().size(), 16u);

  // Execution policy (workers, retries) is not identity.
  JobSpec policy = make_job();
  policy.config.workers = 7;
  policy.config.max_retries = 9;
  EXPECT_EQ(policy.id(), job.id());

  // The experiment inputs are.
  JobSpec other_seed = make_job();
  other_seed.base.set("seed", std::int64_t{123});
  EXPECT_NE(other_seed.id(), job.id());
  JobSpec other_axes = make_job();
  const scenario::ParamValue extra_value = 0.35;
  other_axes.axes[0].values.push_back(extra_value);
  EXPECT_NE(other_axes.id(), job.id());
  JobSpec varied = make_job();
  varied.config.vary_seed = true;
  EXPECT_NE(varied.id(), job.id());
}

TEST(ServeJobTest, CellParamsMatchSweepIdentityWithThreadsPinned) {
  const JobSpec job = make_job();
  ASSERT_EQ(job.cell_count(), 2u);
  for (std::size_t i = 0; i < job.cell_count(); ++i) {
    auto expected = scenario::sweep_cell_params(job.base, job.axes, i,
                                                job.config.vary_seed);
    expected.set("threads", std::int64_t{1});
    EXPECT_EQ(job.cell_params(i).to_json().dump(), expected.to_json().dump())
        << "cell " << i;
  }
  EXPECT_EQ(job.cell_params(0).get_double("beta0"), 0.3);
  EXPECT_EQ(job.cell_params(1).get_double("beta0"), 0.33);
}

TEST(ServeJobTest, CellFingerprintsAreStableAndDistinct) {
  const JobSpec job = make_job();
  EXPECT_EQ(job.cell_fingerprint(0), job.cell_fingerprint(0));
  EXPECT_NE(job.cell_fingerprint(0), job.cell_fingerprint(1));
  // A changed base parameter moves every cell's fingerprint.
  JobSpec other = make_job();
  other.base.set("epochs", std::int64_t{200});
  EXPECT_NE(other.cell_fingerprint(0), job.cell_fingerprint(0));
}

TEST(ServeJobTest, FromJsonRejectsHostileManifests) {
  std::string error;
  for (const char* bad : {
           R"({"scenario": "no-such-scenario"})",
           R"({"version": 2, "scenario": "bouncing-mc"})",
           R"({"scenario": "bouncing-mc",
               "axes": [{"param": "zebra", "values": [1]}]})",
           R"({"scenario": "bouncing-mc",
               "params": {"beta0": 0.9}})",
           R"({"scenario": "bouncing-mc", "config": {"zebra": 1}})",
           R"({"scenario": "bouncing-mc", "config": {"workers": 0}})",
           // A typo'd "axes" must not mean a 1-cell job on defaults.
           R"({"scenario":"bouncing-mc",)"
           R"("axis":[{"param":"beta0","values":[0.3,0.31]}]})",
           // 2^32 workers must not wrap to 0.
           R"({"scenario":"bouncing-mc","config":{"workers":4294967296}})",
           // A fault schedule whose partition branches skip 1 and 2, in
           // the base params and as a sweep-axis value.
           R"({"scenario":"partition-trials","params":{"faults":)"
           R"("{\"version\":1,\"events\":[{\"kind\":\"partition-open\",)"
           R"(\"epoch\":1,\"branch\":3}]}"}})",
           R"({"scenario":"partition-trials","axes":[{"param":"faults",)"
           R"("values":["","{\"version\":1,\"events\":[{\"kind\":)"
           R"(\"partition-open\",\"epoch\":1,\"branch\":3}]}"]}]})",
           R"([])",
           R"({})",
       }) {
    const auto doc = json::Value::parse(bad);
    ASSERT_TRUE(doc.has_value()) << bad;
    error.clear();
    EXPECT_FALSE(
        JobSpec::from_json(builtin_registry(), *doc, &error).has_value())
        << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ServeJobTest, FromJsonFillsDefaultsForOmittedMembers) {
  const auto doc = json::Value::parse(R"({"scenario": "bouncing-mc"})");
  ASSERT_TRUE(doc.has_value());
  std::string error;
  const auto job = JobSpec::from_json(builtin_registry(), *doc, &error);
  ASSERT_TRUE(job.has_value()) << error;
  const auto defaults =
      builtin_registry().find("bouncing-mc")->spec().defaults();
  EXPECT_EQ(job->base.to_json().dump(), defaults.to_json().dump());
  EXPECT_TRUE(job->axes.empty());
  EXPECT_EQ(job->cell_count(), 1u);  // a single-cell job is legal
}

}  // namespace
}  // namespace leak::serve
