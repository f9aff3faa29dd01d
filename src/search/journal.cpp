#include "src/search/journal.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace leak::search {

json::Value EvalJournal::identity_json(
    const Objective& objective, const std::vector<scenario::SweepAxis>& axes) {
  json::Value doc = json::Value::object();
  doc.set("kind", "search-journal");
  doc.set("scenario", objective.scenario);
  doc.set("metric", objective.metric);
  doc.set("maximize", objective.maximize);
  doc.set("base", objective.base.to_json());
  doc.set("axes", scenario::axes_to_json(axes));
  return doc;
}

std::optional<EvalJournal> EvalJournal::open(
    std::string path, const Objective& objective,
    const std::vector<scenario::SweepAxis>& axes, std::string* error) {
  const auto fail = [&](std::string msg) -> std::optional<EvalJournal> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  auto store = std::make_unique<serve::ResultsStore>(std::move(path));
  std::string scan_error;
  auto scan = store->scan(&scan_error);
  std::string repaired_tail;
  if (scan.torn_tail) {
    // kill -9 mid-append: drop the torn line so appends continue from
    // a clean record boundary (the lost evaluation simply re-runs).
    repaired_tail = std::move(scan_error);
    scan_error.clear();
    if (!store->repair(&scan_error)) return fail(scan_error);
  } else if (!scan_error.empty()) {
    return fail(scan_error);
  }

  EvalJournal journal(std::move(store));
  journal.repaired_tail_ = std::move(repaired_tail);
  const json::Value identity = identity_json(objective, axes);
  if (scan.records.empty()) {
    if (!journal.store_->append(identity)) {
      return fail("cannot write " + journal.store_->path());
    }
    return journal;
  }

  if (scan.records.front().payload.dump() != identity.dump()) {
    return fail(journal.store_->path() +
                ": journal belongs to a different search (header does not "
                "match this objective/axes; use a fresh --journal path)");
  }
  const json::Field records("records");
  try {
    for (std::size_t i = 1; i < scan.records.size(); ++i) {
      json::Fields f(json::Field(records, i, scan.records[i].payload));
      std::vector<std::size_t> key;
      f.get("cand").each([&key](const json::Field& index) {
        key.push_back(static_cast<std::size_t>(
            index.integer(0, std::numeric_limits<std::int64_t>::max())));
      });
      journal.cache_[std::move(key)] = f.get("value").number();
    }
  } catch (const std::invalid_argument& e) {
    return fail(journal.store_->path() + ": " + e.what());
  }
  return journal;
}

bool EvalJournal::append(const std::vector<std::size_t>& cand,
                         const scenario::ParamSet& params, double value) {
  json::Value rec = json::Value::object();
  json::Value indices = json::Value::array();
  for (const std::size_t i : cand) {
    indices.push_back(static_cast<std::int64_t>(i));
  }
  rec.set("cand", std::move(indices));
  rec.set("params", params.to_json());
  rec.set("value", value);
  if (!store_->append(rec)) return false;
  cache_[cand] = value;
  return true;
}

}  // namespace leak::search
