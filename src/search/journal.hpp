// Durable evaluation cache for the optimizer: one CRC-framed JSONL
// file in the serve store's format (src/serve/store.hpp).  Line 1 is a
// header carrying the search identity (scenario, metric, direction,
// base params, axes); every further line is one candidate evaluation
// {"cand": [grid indices], "params": {...}, "value": v}.  A killed
// search resumes by replaying the journal: cached candidates are never
// re-evaluated and never re-appended, and because the optimizer visits
// candidates in a deterministic order, an interrupted-then-resumed
// journal is byte-identical to an uninterrupted one.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/scenario/spec.hpp"
#include "src/scenario/sweep.hpp"
#include "src/search/objective.hpp"
#include "src/serve/store.hpp"
#include "src/support/json.hpp"

namespace leak::search {

class EvalJournal {
 public:
  /// Open (creating or resuming) the journal at `path`.  On resume the
  /// header must match the current search identity exactly — a journal
  /// written by a different search is an error, not a silent cache
  /// poisoning — and a torn tail left by kill -9 mid-append is
  /// truncated before appends continue.  Returns nullopt and sets
  /// `error` on failure.
  [[nodiscard]] static std::optional<EvalJournal> open(
      std::string path, const Objective& objective,
      const std::vector<scenario::SweepAxis>& axes, std::string* error);

  /// Evaluations replayed from the file, keyed by candidate grid
  /// indices (the baseline point uses the empty key).
  [[nodiscard]] const std::map<std::vector<std::size_t>, double>& cache()
      const {
    return cache_;
  }

  /// The torn tail open() truncated, in the serve store's wording
  /// ("PATH: torn tail at byte N (M bytes dropped)"); empty when the
  /// journal ended on a record boundary.
  [[nodiscard]] const std::string& repaired_tail() const {
    return repaired_tail_;
  }

  /// Append one fresh evaluation (one write(2) + fsync).
  [[nodiscard]] bool append(const std::vector<std::size_t>& cand,
                            const scenario::ParamSet& params, double value);

  /// The header payload for a search identity (what line 1 stores).
  [[nodiscard]] static json::Value identity_json(
      const Objective& objective,
      const std::vector<scenario::SweepAxis>& axes);

 private:
  explicit EvalJournal(std::unique_ptr<serve::ResultsStore> store)
      : store_(std::move(store)) {}

  std::unique_ptr<serve::ResultsStore> store_;
  std::map<std::vector<std::size_t>, double> cache_;
  std::string repaired_tail_;
};

}  // namespace leak::search
