// Deterministic black-box optimizer over a scenario's knob grid:
// coarse grid seeding followed by pattern/coordinate descent with a
// shrinking step, an evaluation budget, and tie-breaking rules that
// make the whole trajectory — every candidate visited, every journal
// byte — bit-identical across thread counts and across kill/resume.
//
// Determinism contract:
//   * A candidate is a vector of per-axis grid indices; its parameter
//     set comes from scenario::sweep_cell_params (the sweep engine's
//     canonical cell identity), so a searched candidate reproduces the
//     identical `leakctl run`/sweep cell.
//   * Candidate batches run through scenario::run_cells, the sweep
//     engine's cell runner, and merge in candidate order; every
//     scenario is bit-identical across thread counts, so values never
//     depend on where they were computed.
//   * Decisions use only metric values and lexicographic candidate
//     order (strict improvement moves; ties keep the incumbent or
//     pick the lexicographically smaller candidate), never timing.
//   * The budget counts distinct candidates consumed, whether freshly
//     evaluated or replayed from the journal — so a resumed search
//     stops at exactly the point the uninterrupted one would.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/scenario/registry.hpp"
#include "src/scenario/spec.hpp"
#include "src/scenario/sweep.hpp"
#include "src/search/objective.hpp"
#include "src/support/json.hpp"

namespace leak::search {

struct SearchOptions {
  /// Total distinct candidate evaluations (the baseline point and
  /// journal replays included).
  std::size_t budget = 48;
  /// Failed unit-step descent passes tolerated before converging.
  std::size_t patience = 1;
  /// Candidate fan-out threads (0 = auto, 1 = sequential evaluation
  /// with the scenario's own inner parallelism); see run_cells.
  unsigned threads = 0;
  /// CRC-framed JSONL evaluation journal; empty = in-memory cache only.
  std::string journal_path;
};

/// One evaluation in visit order.
struct Evaluation {
  /// Per-axis grid indices; empty = the fixed-strategy baseline.
  std::vector<std::size_t> cand;
  double value = 0.0;
  /// Replayed from the journal instead of freshly computed.
  bool cached = false;
};

struct SearchResult {
  std::string scenario;
  std::string metric;
  bool maximize = true;
  std::vector<scenario::SweepAxis> axes;

  /// The unmodified base params (the fixed strategy) and their value.
  scenario::ParamSet base_params;
  double baseline_value = 0.0;
  std::vector<std::size_t> best_cand;
  scenario::ParamSet best_params;
  double best_value = 0.0;

  std::size_t grid_size = 0;
  std::size_t budget = 0;
  std::size_t evaluations = 0;  ///< distinct candidates consumed
  std::size_t cache_hits = 0;   ///< of which replayed from the journal
  bool converged = false;
  bool budget_exhausted = false;
  std::vector<Evaluation> history;
  /// The journal's repaired torn tail (EvalJournal::repaired_tail);
  /// a note for the operator, not part of the report.
  std::string journal_repair;

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] std::string to_text() const;
  /// One CSV row per evaluation: axis values then the objective value.
  [[nodiscard]] std::string history_to_csv() const;
};

/// Run the search.  Throws std::invalid_argument on an invalid base,
/// empty axes, an unknown metric, or a journal that belongs to a
/// different search; I/O errors on the journal throw std::runtime_error.
[[nodiscard]] SearchResult run_search(const scenario::Scenario& sc,
                                      const Objective& objective,
                                      std::vector<scenario::SweepAxis> axes,
                                      const SearchOptions& options = {});

/// Proposer-boost countermeasure report against a fixed (typically
/// searched-best) balancing strategy: for every rung of the
/// n_byzantine ladder, run `params` with the fork-choice boost off and
/// at `boost_percent`, and report the minimum adversary stake whose
/// majority of trials stalls finality past the leak trigger
/// (stall_exceeds_leak_trigger_fraction >= 0.5) in each mode.  The
/// 2 x ladder runs go through scenario::run_cells on `threads` workers
/// (0 = auto); the report is the same for every thread count.
/// `text_out`, when non-null, receives the human-readable table.
[[nodiscard]] json::Value boost_report(const scenario::Scenario& sc,
                                       const scenario::ParamSet& params,
                                       const std::vector<std::int64_t>& ladder,
                                       unsigned boost_percent,
                                       unsigned threads,
                                       std::string* text_out);

}  // namespace leak::search
