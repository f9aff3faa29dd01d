// The benchmark's workloads and per-layer probes.  Everything here
// calls the library from outside, through its public headers; no file
// under src/ is instrumented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/measure.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/result.hpp"

namespace perfbench {

namespace scenario = leak::scenario;

/// The workload seed whose cell results are pinned by golden digests.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One scenario cell of a workload: a registry scenario plus
/// `key=value` overrides.  The cell's `seed` param is derived from the
/// workload seed; `threads` is the workload's; `block` stays 0 (auto).
struct Cell {
  std::string label;
  std::string scenario;
  std::vector<std::string> sets;
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;  ///< empty for `jobs`, which drives serve/search
  std::size_t representative = 0;  ///< cell timed for runner.parallel_speedup
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Cell `index`'s seed param for workload seed `seed` (31-bit, so it
/// fits every consumer's integer type).
[[nodiscard]] std::int64_t cell_seed(std::uint64_t seed, std::size_t index);

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 4;
  std::string work_dir;     ///< where job dirs, stores and journals go
  std::string golden_path;  ///< empty = no golden check
  std::string trace_path;   ///< Chrome trace output (trace mode)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Summary summary;     ///< per-call distribution when `timed`
  bool timed = false;
  std::string note;    ///< "computed", "estimated", ... (empty = measured)
};

/// Counts ops (one cell or one evaluation) and the ones that failed: an
/// exception or a mismatch against the reference/golden result.
class Checker {
 public:
  void pass(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& what, std::size_t n = 1);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct Outcome {
  Checker check;
  std::vector<Metric> metrics;
  json::Value digests = json::Value::object();  ///< label -> digest
  json::Value self_ms = json::Value::object();  ///< traced: layer -> ms
  json::Value cell_s = json::Value::object();   ///< label -> [s per pass/cycle]
  std::vector<double> reference_s;  ///< every reference_loop_s() sample
};

/// Golden digests for one workload (label -> digest), or null when the
/// run is not at the default seed or no golden file was given.
[[nodiscard]] const json::Value* golden_for(const Options& opt,
                                            const json::Value& golden);

/// Compare `got` against the golden entry `label` (when `golden` is not
/// null), counting a mismatch or a missing entry as a failed op.
void check_golden(const json::Value* golden, const std::string& label,
                  const std::string& got, Checker* check);

/// Canonical digest of a scenario result.
[[nodiscard]] std::string result_digest(const scenario::ScenarioResult& r);

/// Run one workload per the options (timed loop, or the traced run
/// with per-layer probes when opt.trace).
[[nodiscard]] Outcome run_workload(const Options& opt);

// ---- pieces shared with the probes and the self-test -----------------

/// A cell resolved against a registry: validated params, ready to run.
struct ResolvedCell {
  std::string label;
  const scenario::Scenario* scenario = nullptr;
  scenario::ParamSet params;
  std::size_t paths = 0;
};

[[nodiscard]] std::vector<ResolvedCell> resolve_cells(
    const Workload& w, const scenario::ScenarioRegistry& registry,
    std::uint64_t seed, unsigned threads);

/// The serve + search cycle of the `jobs` workload over a grid of
/// `beta0_values` x `branch_values` semiactive-sweep cells, plus
/// `searches` journaled semiactive-duty searches.
struct JobCycleConfig {
  std::size_t beta0_values = 120;
  std::size_t branch_values = 10;
  std::int64_t paths = 64;
  std::size_t searches = 8;  ///< seeded searches per cycle
  std::size_t search_budget = 120;
};

struct JobCycleResult {
  double cold_s = 0.0;        ///< JobService::run, fresh job, fsync on
  std::size_t executed = 0;   ///< cells made durable by the cold run
  double search_s = 0.0;      ///< cold journaled search
  std::size_t fresh_evals = 0;
  double readback_s = 0.0;    ///< resume + status + merge + warm search
  double merge_s = 0.0;       ///< canonical merge alone
  std::size_t warm_evals = 0;   ///< evaluations the warm search requested
  std::size_t warm_replays = 0; ///< of which replayed from the journal
  std::size_t respawns = 0;
  double worker_cell_ms = 0.0;  ///< sum of in-worker cell wall time
};

class JobBench {
 public:
  JobBench(const scenario::ScenarioRegistry& registry, JobCycleConfig cfg,
           std::uint64_t seed, unsigned workers, std::string dir);

  [[nodiscard]] std::size_t cells() const;

  /// Submit the job into the fresh jobs dir of `slot` (<dir>/slot-N).
  /// Timed by the caller as set-up.
  void submit(std::size_t slot);

  /// Record the reference results -- the in-process run_sweep of the
  /// grid and an unjournaled search -- check them against the goldens
  /// ("merged", "search") and add their digests to `digests`.
  void reference(const json::Value* golden, Checker* check,
                 json::Value* digests);

  /// One cold-run / search / read-back cycle on submitted slot `slot`;
  /// `fsync` selects whether the cold run syncs each record.
  JobCycleResult cycle(std::size_t slot, bool fsync, Tracer* tracer,
                       Checker* check);

  [[nodiscard]] const json::Value& sample_records() const {
    return sample_records_;
  }

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
  json::Value sample_records_ = json::Value::array();
};

/// What the per-layer probes are shaped by: the traced workload's
/// cells, results and timings, and for `jobs` its traced cycles.
struct ProbeInputs {
  const Workload* workload = nullptr;
  const scenario::ScenarioRegistry* registry = nullptr;
  std::vector<ResolvedCell> cells;
  json::Value records = json::Value::array();  ///< result JSON per cell
  std::vector<double> cell_ms;                 ///< traced-pass per-cell
  double overhead = 1.0;
  const JobCycleResult* job = nullptr;  ///< the jobs traced cycle, if any
  const JobCycleResult* durable_job = nullptr;  ///< same, fsync on
  std::size_t job_cells = 0;
  unsigned threads = 4;
  std::uint64_t seed = kDefaultSeed;
  std::string work_dir;
};

/// Run every per-layer probe, appending one Metric per BENCHMARK.json
/// per_layer entry to `out`; ops the probes check count in `check`.
void run_probes(const ProbeInputs& in, Tracer* tracer, Checker* check,
                std::vector<Metric>* out);

}  // namespace perfbench
