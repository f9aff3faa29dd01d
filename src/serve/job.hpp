// Job manifest for the sweep service: one job = one scenario, a full
// base parameter set, optional sweep axes, and run configuration.
// The manifest round-trips through JSON (the on-disk
// <jobs>/<id>/manifest.json), and the job id is a content hash of the
// experiment identity (scenario + params + axes + vary_seed) — the
// same experiment always maps to the same job, so a re-submit resumes
// instead of duplicating work.
//
// Cell identity is delegated to scenario::sweep_cell_params, the same
// function run_sweep uses, so cell i of a served job is bit-identical
// to cell i of a foreground `leakctl sweep` with the same inputs —
// except that serve pins each cell to one inner thread (the shard is
// the parallelism unit), which by the thread-invariance guarantee
// changes metadata only, never numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/scenario/registry.hpp"
#include "src/scenario/sweep.hpp"
#include "src/support/json.hpp"

namespace leak::serve {

struct JobConfig {
  /// Derive per-cell seeds from (base seed, cell index).
  bool vary_seed = false;
  /// Worker subprocesses to shard cells across.
  unsigned workers = 1;
  /// Re-run budget per cell when a worker dies mid-cell.
  unsigned max_retries = 2;
};

struct JobSpec {
  std::string scenario;
  scenario::ParamSet base;  ///< full parameter set (defaults filled)
  std::vector<scenario::SweepAxis> axes;  ///< empty = single-cell job
  JobConfig config;

  [[nodiscard]] std::size_t cell_count() const {
    return scenario::sweep_cell_count(axes);
  }

  /// Parameters of cell `index`: sweep_cell_params with the inner
  /// thread count pinned to 1 (serve's parallelism is the shard).
  [[nodiscard]] scenario::ParamSet cell_params(std::size_t index) const;

  /// Content-addressed job id: 16 hex chars of the SHA-256 of the
  /// identity core (scenario, base params, axes, vary_seed).  The
  /// worker/retry knobs are execution policy, not identity.
  [[nodiscard]] std::string id() const;

  /// Drift guard stamped into every store record: CRC-32 of the
  /// canonical serialization of cell `index`'s parameters.  A record
  /// whose fingerprint disagrees with the manifest (edited manifest,
  /// store copied between jobs) is rejected at resume time.
  [[nodiscard]] std::uint32_t cell_fingerprint(std::size_t index) const;

  /// Manifest document: {"version": 1, "scenario": ..., "params":
  /// {...}, "axes": [...], "config": {...}}.
  [[nodiscard]] json::Value to_json() const;

  /// Inverse of to_json, validated against the registry: the scenario
  /// must exist, params must satisfy its spec, axes must name declared
  /// parameters with in-range values, unknown keys are rejected at
  /// the top level and in `config`, and `workers` must lie in
  /// [1, 2^32-1], `max_retries` in [0, 2^32-1].  Returns nullopt and
  /// sets `error` (prefixed with the offending path, e.g.
  /// "manifest.config.workers: ...") on failure.
  [[nodiscard]] static std::optional<JobSpec> from_json(
      const scenario::ScenarioRegistry& registry, const json::Value& doc,
      std::string* error = nullptr);
};

}  // namespace leak::serve
