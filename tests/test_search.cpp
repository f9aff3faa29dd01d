// Tests for the adversary-strategy optimizer (src/search): fail-fast
// objective/axis resolution, deterministic grid seeding + pattern
// descent, bit-identity across candidate-evaluation thread counts, and
// the journaled evaluation cache — an interrupted search (budget cut,
// torn tail, or SIGKILL mid-run) resumes to a journal byte-identical
// to an uninterrupted run's.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/scenario/registry.hpp"
#include "src/search/journal.hpp"
#include "src/search/objective.hpp"
#include "src/search/search.hpp"
#include "src/serve/store.hpp"
#include "tests/path_scale.hpp"

namespace leak::search {
namespace {

using scenario::builtin_registry;

[[nodiscard]] std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class SearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "search_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A cheap, smooth objective: the semiactive duty-cycle analytic
  /// peak over (branches, beta0), milliseconds per evaluation.
  [[nodiscard]] ResolvedSearch cheap_search() const {
    std::string error;
    auto resolved = resolve_search(
        builtin_registry(), "semiactive-sweep:beta_max:max",
        {"branches=2:6:1", "beta0=0.26:0.34:0.02"},
        {"paths=" + std::to_string(env::scaled_count(16)), "epochs=300"},
        &error);
    EXPECT_TRUE(resolved.has_value()) << error;
    return *resolved;
  }

  [[nodiscard]] SearchResult run_cheap(const SearchOptions& opts) const {
    const auto resolved = cheap_search();
    const auto& sc = *builtin_registry().find(resolved.objective.scenario);
    return run_search(sc, resolved.objective, resolved.axes, opts);
  }

  std::string dir_;
};

TEST(SearchResolve, ShippedConfigsResolveAgainstTheRegistry) {
  for (const auto& cfg : builtin_search_configs()) {
    std::string error;
    const auto resolved =
        resolve_search(builtin_registry(), cfg.name, {}, {}, &error);
    ASSERT_TRUE(resolved.has_value()) << cfg.name << ": " << error;
    EXPECT_EQ(resolved->config_name, cfg.name);
    EXPECT_EQ(resolved->objective.scenario, cfg.scenario);
    EXPECT_EQ(resolved->objective.metric, cfg.metric);
    EXPECT_FALSE(resolved->axes.empty());
    EXPECT_GE(resolved->budget, 1u);
    // Every config override landed in the base ParamSet.
    for (const auto& kv : cfg.sets) {
      const auto eq = kv.find('=');
      ASSERT_NE(eq, std::string::npos);
      EXPECT_TRUE(resolved->objective.base.contains(kv.substr(0, eq))) << kv;
    }
  }
}

TEST(SearchResolve, UnknownObjectiveListsShippedConfigs) {
  std::string error;
  EXPECT_FALSE(
      resolve_search(builtin_registry(), "no-such", {}, {}, &error));
  for (const auto& cfg : builtin_search_configs()) {
    EXPECT_NE(error.find(cfg.name), std::string::npos) << error;
  }
  EXPECT_FALSE(
      resolve_search(builtin_registry(), "no-such:metric", {}, {}, &error));
  EXPECT_NE(error.find("unknown scenario"), std::string::npos) << error;
}

TEST(SearchResolve, UnknownKnobsFailFastWithKnownParamsHint) {
  // The fail-fast satellite: a mistyped --axis or --set knob is
  // rejected during resolution — before any evaluation or worker
  // spawns — and the error names the declared parameter surface.
  std::string error;
  EXPECT_FALSE(resolve_search(builtin_registry(), "balancing-timing",
                              {"bogus_knob=1:3:1"}, {}, &error));
  EXPECT_NE(error.find("bogus_knob"), std::string::npos) << error;
  EXPECT_NE(error.find("known params:"), std::string::npos) << error;
  EXPECT_NE(error.find("release_delay"), std::string::npos) << error;

  EXPECT_FALSE(resolve_search(builtin_registry(), "balancing-timing", {},
                              {"also_bogus=7"}, &error));
  EXPECT_NE(error.find("known params:"), std::string::npos) << error;
}

TEST(SearchResolve, UserAxisOverridesConfigAxisOverSameParam) {
  std::string error;
  const auto resolved = resolve_search(builtin_registry(), "balancing-timing",
                                       {"release_delay=0.1,0.5"}, {}, &error);
  ASSERT_TRUE(resolved.has_value()) << error;
  std::size_t release_axes = 0;
  for (const auto& axis : resolved->axes) {
    if (axis.param == "release_delay") {
      ++release_axes;
      EXPECT_EQ(axis.values.size(), 2u);
    }
  }
  EXPECT_EQ(release_axes, 1u);
}

TEST_F(SearchTest, FindsAtLeastTheFixedBaselineAndIsRepeatable) {
  SearchOptions opts;
  opts.budget = 20;
  const SearchResult a = run_cheap(opts);
  const SearchResult b = run_cheap(opts);
  // The optimizer is deterministic end to end: identical trajectory,
  // identical report bytes.
  EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
  EXPECT_EQ(a.history_to_csv(), b.history_to_csv());
  // The searched strategy is never worse than the fixed baseline.
  EXPECT_GE(a.best_value, a.baseline_value);
  EXPECT_EQ(a.history.front().cand, std::vector<std::size_t>{});
  EXPECT_LE(a.evaluations, opts.budget);
}

TEST_F(SearchTest, BitIdenticalAcrossEvaluationThreadCounts) {
  SearchOptions one;
  one.budget = 16;
  one.threads = 1;
  SearchOptions four = one;
  four.threads = 4;
  const SearchResult a = run_cheap(one);
  const SearchResult b = run_cheap(four);
  EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
}

TEST_F(SearchTest, ThreadCountsProduceByteIdenticalJournals) {
  SearchOptions one;
  one.budget = 16;
  one.threads = 1;
  one.journal_path = dir_ + "/one.jsonl";
  SearchOptions four = one;
  four.threads = 4;
  four.journal_path = dir_ + "/four.jsonl";
  const SearchResult a = run_cheap(one);
  const SearchResult b = run_cheap(four);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(slurp(one.journal_path), slurp(four.journal_path));
}

TEST_F(SearchTest, BudgetCutResumesToByteIdenticalJournal) {
  // Uninterrupted reference.
  SearchOptions clean;
  clean.budget = 16;
  clean.journal_path = dir_ + "/clean.jsonl";
  const SearchResult ref = run_cheap(clean);

  // Interrupted: a small budget stops mid-search; the second run
  // replays the journal and continues where the first stopped.
  SearchOptions cut = clean;
  cut.budget = 5;
  cut.journal_path = dir_ + "/resumed.jsonl";
  const SearchResult partial = run_cheap(cut);
  EXPECT_TRUE(partial.budget_exhausted);
  EXPECT_EQ(partial.evaluations, 5u);

  SearchOptions rest = clean;
  rest.journal_path = cut.journal_path;
  const SearchResult resumed = run_cheap(rest);
  EXPECT_EQ(resumed.cache_hits, 5u);
  EXPECT_EQ(resumed.best_value, ref.best_value);
  EXPECT_EQ(resumed.best_cand, ref.best_cand);
  EXPECT_EQ(slurp(rest.journal_path), slurp(clean.journal_path));
}

TEST_F(SearchTest, CompletedSearchReRunsZeroEvaluations) {
  SearchOptions opts;
  opts.budget = 16;
  opts.journal_path = dir_ + "/done.jsonl";
  const SearchResult first = run_cheap(opts);
  const std::string bytes = slurp(opts.journal_path);
  const SearchResult again = run_cheap(opts);
  EXPECT_EQ(again.cache_hits, again.evaluations);
  EXPECT_EQ(again.best_value, first.best_value);
  EXPECT_EQ(slurp(opts.journal_path), bytes);
}

TEST_F(SearchTest, TornTailIsRepairedAndResumeStaysByteIdentical) {
  SearchOptions clean;
  clean.budget = 12;
  clean.journal_path = dir_ + "/clean.jsonl";
  (void)run_cheap(clean);
  const std::string reference = slurp(clean.journal_path);

  // Chop the last record in half and add torn garbage — the state a
  // kill -9 mid-append leaves behind.
  const std::string torn_path = dir_ + "/torn.jsonl";
  const std::size_t keep = reference.rfind('\n', reference.size() - 2) + 1;
  {
    std::ofstream out(torn_path, std::ios::binary);
    out.write(reference.data(), static_cast<std::streamsize>(keep));
    out << "12345678 {\"half";
  }
  SearchOptions resume = clean;
  resume.journal_path = torn_path;
  const SearchResult resumed = run_cheap(resume);
  EXPECT_GT(resumed.cache_hits, 0u);
  EXPECT_EQ(slurp(torn_path), reference);
  EXPECT_EQ(resumed.journal_repair,
            torn_path + ": torn tail at byte " + std::to_string(keep) + " (" +
                std::to_string(std::strlen("12345678 {\"half")) +
                " bytes dropped)");
  // A clean journal reports nothing.
  EXPECT_EQ(run_cheap(resume).journal_repair, "");
}

TEST_F(SearchTest, SigkilledMidSearchResumesByteIdentically) {
  // The headline crash test, in the serve-resume mold: SIGKILL a
  // process mid-search, resume in this process, and require the
  // journal to end byte-identical to an uninterrupted run's.  The
  // balancing objective's evaluations are slow enough (tens of
  // milliseconds and up) for the kill to land mid-search.
  std::string error;
  const auto resolved = resolve_search(
      builtin_registry(), "balancing-timing",
      {"release_delay=0.1,1.1,2.1", "cross_delay=0.1,1.1"},
      {"paths=" + std::to_string(env::scaled_count(4)), "epochs=6",
       "n_honest=8", "n_byzantine=3"},
      &error);
  ASSERT_TRUE(resolved.has_value()) << error;
  const auto& sc = *builtin_registry().find(resolved->objective.scenario);

  SearchOptions clean;
  clean.budget = 8;
  clean.journal_path = dir_ + "/clean.jsonl";
  (void)run_search(sc, resolved->objective, resolved->axes, clean);
  const std::string reference = slurp(clean.journal_path);

  SearchOptions killed = clean;
  killed.journal_path = dir_ + "/killed.jsonl";
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    (void)run_search(sc, resolved->objective, resolved->axes, killed);
    ::_exit(0);
  }
  // Wait until at least the header and one evaluation are durable,
  // then kill -9 the searching process.
  const serve::ResultsStore store(killed.journal_path);
  for (int i = 0; i < 4000 && store.scan().records.size() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  const SearchResult resumed =
      run_search(sc, resolved->objective, resolved->axes, killed);
  EXPECT_GT(resumed.cache_hits, 0u);
  EXPECT_EQ(slurp(killed.journal_path), reference);
}

TEST_F(SearchTest, JournalOfADifferentSearchIsRejected) {
  SearchOptions opts;
  opts.budget = 4;
  opts.journal_path = dir_ + "/journal.jsonl";
  (void)run_cheap(opts);

  // Same path, different metric: refuse rather than poison the cache.
  auto resolved = cheap_search();
  resolved.objective.metric = "supermajority_recovery_epoch";
  const auto& sc = *builtin_registry().find(resolved.objective.scenario);
  EXPECT_THROW(
      (void)run_search(sc, resolved.objective, resolved.axes, opts),
      std::invalid_argument);
}

TEST_F(SearchTest, BudgetOfOneEvaluatesOnlyTheBaseline) {
  SearchOptions opts;
  opts.budget = 1;
  const SearchResult r = run_cheap(opts);
  EXPECT_EQ(r.evaluations, 1u);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.best_value, r.baseline_value);
  EXPECT_EQ(r.best_params.to_json().dump(), r.base_params.to_json().dump());
}

TEST_F(SearchTest, UnknownMetricThrowsWithAvailableMetrics) {
  auto resolved = cheap_search();
  resolved.objective.metric = "no_such_metric";
  const auto& sc = *builtin_registry().find(resolved.objective.scenario);
  SearchOptions opts;
  opts.budget = 4;
  try {
    (void)run_search(sc, resolved.objective, resolved.axes, opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("beta_max"), std::string::npos)
        << e.what();
  }
}

TEST_F(SearchTest, JournalHeaderCarriesTheSearchIdentity) {
  const auto resolved = cheap_search();
  const json::Value identity =
      EvalJournal::identity_json(resolved.objective, resolved.axes);
  EXPECT_EQ(identity.find("kind")->as_string(), "search-journal");
  EXPECT_EQ(identity.find("scenario")->as_string(), "semiactive-sweep");
  EXPECT_EQ(identity.find("metric")->as_string(), "beta_max");
  ASSERT_NE(identity.find("axes"), nullptr);
  ASSERT_NE(identity.find("base"), nullptr);
}

TEST(BoostReport, SameDocumentAtAnyThreadCountAndFirstStallingRung) {
  // A small ladder on the balancing-timing base config: the stall
  // fraction first reaches 0.5 at 8 Byzantine validators with the boost
  // off (exactly 0.5) and at 10 with it on.
  const scenario::Scenario& sc = *builtin_registry().find("balancing-attack");
  scenario::ParamSet params = sc.spec().defaults();
  for (const char* kv : {"paths=4", "n_honest=16", "epochs=10"}) {
    ASSERT_FALSE(sc.spec().apply_kv(kv, &params)) << kv;
  }
  const std::vector<std::int64_t> ladder{5, 7, 8, 10};
  const json::Value one = boost_report(sc, params, ladder, 40, 1, nullptr);
  std::string text;
  const json::Value three = boost_report(sc, params, ladder, 40, 3, &text);
  EXPECT_EQ(one.dump(), three.dump());
  EXPECT_NE(text.find("boost off 0.333"), std::string::npos) << text;

  // The min-stake rule: the first rung whose fraction is >= 0.5.
  const json::Value& rows = *one.find("rows");
  ASSERT_EQ(rows.size(), ladder.size());
  for (const auto& [frac, min] :
       {std::pair{"stall_frac_off", "min_stalling_stake_boost_off"},
        std::pair{"stall_frac_on", "min_stalling_stake_boost_on"}}) {
    const json::Value* first = nullptr;
    for (std::size_t i = 0; i < rows.size() && first == nullptr; ++i) {
      if (rows.at(i).find(frac)->as_double() >= 0.5) {
        first = rows.at(i).find("adversary_stake");
      }
    }
    ASSERT_NE(first, nullptr) << frac;
    EXPECT_EQ(one.find(min)->dump(), first->dump()) << min;
  }
  EXPECT_DOUBLE_EQ(one.find("min_stalling_stake_boost_off")->as_double(),
                   8.0 / 24.0);
  EXPECT_DOUBLE_EQ(one.find("min_stalling_stake_boost_on")->as_double(),
                   10.0 / 26.0);
}

}  // namespace
}  // namespace leak::search
