// SweepEngine: expand grid/list sweeps over any scenario parameter
// into a batch of cells and execute it, optionally fanning cells
// across the trial runner's workers.
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
  /// Fan cells across the trial runner's workers (each cell forced to
  /// threads = 1) instead of running cells sequentially with the
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

  /// Machine-readable report of the whole batch.
  [[nodiscard]] json::Value to_json() const;
  /// One CSV row per cell: swept parameter values then every metric of
  /// the first cell's metric set.
  [[nodiscard]] std::string to_csv() const;
  /// Human-readable summary table (same columns as the CSV).
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

/// Run the batch.  Throws std::invalid_argument on an invalid base or
/// axis (validated against scenario.spec() up front).
[[nodiscard]] SweepResult run_sweep(const Scenario& scenario,
                                    const ParamSet& base,
                                    std::vector<SweepAxis> axes,
                                    const SweepConfig& config = {});

}  // namespace leak::scenario
