// The experiment registry: every attack/leak experiment is a named,
// parameterized, sweepable artifact.  A Scenario couples a declarative
// ScenarioSpec with a run function; the ScenarioRegistry holds them by
// name.  Registering a new experiment is ~50 lines (spec + adapter
// around an existing driver) instead of a new binary.
//
// Uniform contract, enforced at registration time: every spec declares
// the int parameters `paths` (trial count), `seed` (master RNG seed),
// `threads` (0 = LEAK_THREADS / hardware_concurrency), and `block`
// (trials per scheduled block, 0 = the runner's auto block), so
// generic tooling — `leakctl run <name> --paths 64 --block 256`, the
// CI scenario-smoke job, the sweep engine's per-cell seeding — works
// on every scenario without scenario-specific knowledge.
// Deterministic analytic scenarios accept them and note that they are
// ignored.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/result.hpp"
#include "src/scenario/spec.hpp"

namespace leak::scenario {

/// Fills a ScenarioResult's metrics/stats/trials from validated
/// parameters; the wrapper stamps identity and metadata.
using RunFn = std::function<void(const ParamSet&, ScenarioResult*)>;

class Scenario {
 public:
  Scenario(ScenarioSpec spec, RunFn run);

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  /// Validate `params` against the spec, run, and stamp metadata
  /// (scenario name, params, seed, resolved threads, git describe,
  /// wall-clock ms).  Throws std::invalid_argument on invalid params.
  [[nodiscard]] ScenarioResult run(const ParamSet& params) const;

 private:
  ScenarioSpec spec_;
  RunFn run_;
};

class ScenarioRegistry {
 public:
  /// Register; throws std::invalid_argument on a duplicate name or a
  /// spec missing the uniform paths/seed/threads parameters.
  void add(ScenarioSpec spec, RunFn run);

  [[nodiscard]] const Scenario* find(std::string_view name) const;
  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> all() const;

 private:
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

/// The process-wide registry pre-loaded with the 13 built-in scenarios
/// (bouncing-mc, attack-lifetime, population-ensemble,
/// partition-trials, duty-cycle, recovery, slot-protocol, table1,
/// balancing-attack, semiactive-sweep, multi-partition-recovery,
/// cascading-partitions, flaky-network).
/// Construct-on-first-use; safe to call from multiple threads after
/// first use, but intended to be touched from main-thread setup code.
[[nodiscard]] ScenarioRegistry& builtin_registry();

/// Register the built-ins into an arbitrary registry (exposed for
/// tests that want a fresh instance).
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace leak::scenario
