// JobService: the sweep service over a jobs directory.
//
//   <jobs_dir>/<job_id>/manifest.json   submitted JobSpec (atomic write)
//   <jobs_dir>/<job_id>/results.jsonl   append-only cell ledger (store.hpp)
//   <jobs_dir>/<job_id>/merged.json     complete merged artifact (atomic)
//
// run() executes exactly the cells the ledger is missing, sharding
// them across forked worker subprocesses (worker.hpp), appending one
// fsync'd record per completed cell, and retrying cells lost to a
// dead worker with a bounded exponential backoff.  Because cell
// identity is pure (scenario, manifest, index) — StreamSeeder seeding,
// no placement dependence — a job kill -9'd mid-run and resumed
// produces a merged artifact bit-identical (modulo wall-clock
// metadata; see canonicalize) to an uninterrupted run, and re-running
// a completed job executes zero cells.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/scenario/registry.hpp"
#include "src/serve/job.hpp"
#include "src/support/json.hpp"

namespace leak::serve {

struct RunOptions {
  /// Worker subprocesses (0 = the job's config.workers).
  unsigned workers = 0;
  /// Per-cell retry budget on worker death (0 = the job's config).
  unsigned max_retries = 0;
  /// Stop cleanly after this many newly-executed cells (0 = run to
  /// completion).  The budget makes interruption deterministic in
  /// tests and lets an operator drain a huge job incrementally.
  std::size_t max_cells = 0;
  /// Base respawn backoff in ms; doubles per consecutive respawn,
  /// capped at 1 s.  Tests set 0.
  unsigned backoff_ms = 50;
  /// fsync every appended record (the durability contract; tests that
  /// only exercise scheduling may turn it off).
  bool fsync_records = true;
  /// Forwarded to WorkerOptions::test_abort_after.
  unsigned test_worker_abort_after = 0;
};

struct RunStats {
  std::size_t total_cells = 0;
  std::size_t already_done = 0;  ///< ledger hits before this run
  std::size_t executed = 0;      ///< cells run (and recorded) this run
  std::size_t respawns = 0;      ///< workers respawned after dying
  bool completed = false;        ///< merged.json written (job is done)
};

struct JobStatus {
  std::string id;
  std::string scenario;
  std::size_t total_cells = 0;
  std::size_t done_cells = 0;
  bool merged = false;
  /// Why the job's manifest or ledger failed to load (list() only);
  /// every field but `id` is then unset.  Empty for a loadable job.
  std::string error;
};

class JobService {
 public:
  JobService(const scenario::ScenarioRegistry& registry,
             std::string jobs_dir);

  [[nodiscard]] std::string job_dir(const std::string& id) const;

  /// Create <jobs_dir>/<id>/manifest.json (atomically; idempotent for
  /// an identical manifest — the id is a content hash, so the same
  /// experiment resumes instead of duplicating).  Returns the job id.
  [[nodiscard]] std::optional<std::string> submit(const JobSpec& job,
                                                  std::string* error);

  /// Load a job's manifest back, validated against the registry.
  [[nodiscard]] std::optional<JobSpec> load(const std::string& id,
                                            std::string* error) const;

  /// Progress read from the manifest and the ledger.  A ledger record
  /// that run() would refuse fails the status the same way.
  [[nodiscard]] std::optional<JobStatus> status(const std::string& id,
                                                std::string* error) const;

  /// Every job in the directory, sorted by id.  A job whose manifest or
  /// ledger fails to load is listed with its error, never dropped.
  [[nodiscard]] std::vector<JobStatus> list() const;

  /// Run/resume: repair the ledger's torn tail if any, execute the
  /// missing cells, and write merged.json once every cell is present.
  [[nodiscard]] std::optional<RunStats> run(const std::string& id,
                                            const RunOptions& options,
                                            std::string* error);

  /// The merged artifact: the job's scenario::sweep_document plus a
  /// "job" key, so it equals a foreground sweep's report of the same
  /// cells.  With `canonical`, wall-clock metadata (meta.wall_ms) is
  /// zeroed in every cell so two runs of the same job compare
  /// byte-for-byte.
  [[nodiscard]] std::optional<json::Value> merged(const std::string& id,
                                                  bool canonical,
                                                  std::string* error) const;

  /// Zero the nondeterministic metadata of a merged artifact.
  [[nodiscard]] static json::Value canonicalize(json::Value merged);

 private:
  const scenario::ScenarioRegistry& registry_;
  std::string jobs_dir_;
};

}  // namespace leak::serve
