// SweepEngine: expand grid/list sweeps over any scenario parameter
// into a batch of cells, execute it, optionally fanning cells across
// the trial runner's workers, and write its one result: the sweep
// document and the table (text or CSV) derived from it.  A served job
// (src/serve) writes the same document and table for the same cells.
//
// Determinism contract: with the default seed mode every cell inherits
// the base seed, and because every driver is bit-identical for any
// thread count, a sweep cell reproduces a direct `run` of the same
// parameters exactly — the fig9 / table1 numbers fall out of a sweep
// bit-identically.  With vary_seed the engine derives a stable
// per-cell seed from (base seed, cell index) via StreamSeeder, so a
// sweep gets decorrelated randomness while any single cell stays
// replayable from its index alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/registry.hpp"
#include "src/scenario/result.hpp"
#include "src/scenario/spec.hpp"
#include "src/support/json.hpp"
#include "src/support/table.hpp"

namespace leak::scenario {

/// One swept parameter and its value list (already validated against
/// the spec; values are stored as typed ParamValues).
struct SweepAxis {
  std::string param;
  std::vector<ParamValue> values;
};

/// Parse one "--sweep key=SPEC" axis against a scenario spec.  SPEC is
/// either a comma list ("0.3,0.33,1/3" — no expression support, plain
/// values) or an inclusive numeric grid "lo:hi:step" (int or double
/// parameters).  Returns the error message on failure.
[[nodiscard]] std::optional<std::string> parse_sweep_axis(
    const ScenarioSpec& spec, std::string_view text, SweepAxis* out);

struct SweepConfig {
  /// Derive a per-cell seed from (base seed, cell index) instead of
  /// running every cell with the base seed.
  bool vary_seed = false;
  /// Fan cells across the trial runner's workers (run_cells over
  /// `threads`) instead of running cells sequentially with the
  /// scenario's own inner parallelism.  Either way the numbers are
  /// bit-identical; this only moves where the parallelism sits.
  bool parallel_cells = false;
  /// Worker threads for parallel_cells (0 = auto).
  unsigned threads = 0;
};

struct SweepCell {
  ParamSet params;
  ScenarioResult result;
};

struct SweepResult {
  std::string scenario;
  std::vector<SweepAxis> axes;
  /// Row-major over the axes: the LAST axis varies fastest.
  std::vector<SweepCell> cells;

  /// The batch's sweep_document.
  [[nodiscard]] json::Value to_json() const;
  /// sweep_table of the document, as CSV.
  [[nodiscard]] std::string to_csv() const;
  /// A one-line summary, then sweep_table of the document.
  [[nodiscard]] std::string to_text() const;
};

/// Number of cells in the cartesian product (0 when any axis is empty).
[[nodiscard]] std::size_t sweep_cell_count(const std::vector<SweepAxis>& axes);

/// The canonical cell identity: the full parameter set of cell `index`
/// in the row-major expansion (last axis fastest), including the
/// vary_seed per-cell seed derivation (StreamSeeder over (base seed,
/// index), skipped when an axis sweeps `seed` itself).  run_sweep and
/// the serve job ledger both derive cells through this one function,
/// so a cell re-run by a resumed job is bit-identical to the same cell
/// of an uninterrupted sweep.  `index` must be < sweep_cell_count.
[[nodiscard]] ParamSet sweep_cell_params(const ParamSet& base,
                                         const std::vector<SweepAxis>& axes,
                                         std::size_t index, bool vary_seed);

/// Serialize axes with typed values ([{"param": "beta0",
/// "values": [0.3, 0.33]}, ...]) — the job-manifest wire form.
[[nodiscard]] json::Value axes_to_json(const std::vector<SweepAxis>& axes);

/// Inverse of axes_to_json, validated against `spec`: every axis must
/// name a declared parameter (unknown names are rejected here, not at
/// cell-run time) and every value must pass the spec's range/choice
/// constraints.  Returns nullopt and sets `error` on failure.
[[nodiscard]] std::optional<std::vector<SweepAxis>> axes_from_json(
    const ScenarioSpec& spec, const json::Value& doc,
    std::string* error = nullptr);
/// axes_from_json's throwing core, for axes nested in a larger
/// document; errors are prefixed with `at`'s path.
[[nodiscard]] std::vector<SweepAxis> read_axes(const ScenarioSpec& spec,
                                               const json::Field& at);

/// The one sweep document: {"scenario", "axes" (typed values, as
/// axes_to_json writes them), "cells": [one ScenarioResult report per
/// cell, row-major]}.  SweepResult::to_json writes it, and a served
/// job's merged.json is it plus a "job" key.
[[nodiscard]] json::Value sweep_document(const std::string& scenario,
                                         const std::vector<SweepAxis>& axes,
                                         json::Array cells);

/// The one table of a sweep document: a row per cell holding its swept
/// parameter values (read from the cell's params), then every metric
/// of the first cell's metric set ("?" where a cell lacks one).
/// Numbers are spelled shortest-exact, strings as they are; Table
/// quotes them for CSV.  Throws std::invalid_argument, naming the
/// path, on a document of another shape.
[[nodiscard]] Table sweep_table(const json::Value& doc);

/// Run each cell's params through `scenario` on a pool of `threads`
/// workers (0 = auto) and return the results in cell order.  When the
/// pool has two or more threads and there are two or more cells, each
/// cell is pinned to one inner thread, so the parallelism sits across
/// cells; every scenario is bit-identical across thread counts, so the
/// results are the same either way.  The one cell runner of run_sweep
/// and of the search's candidate batches.  A throwing cell's exception
/// is rethrown (the lowest failing cell's, as TrialRunner::run does).
[[nodiscard]] std::vector<ScenarioResult> run_cells(
    const Scenario& scenario, const std::vector<ParamSet>& cells,
    unsigned threads);

/// Run the batch.  Throws std::invalid_argument on an invalid base or
/// axis (validated against scenario.spec() up front).
[[nodiscard]] SweepResult run_sweep(const Scenario& scenario,
                                    const ParamSet& base,
                                    std::vector<SweepAxis> axes,
                                    const SweepConfig& config = {});

}  // namespace leak::scenario
