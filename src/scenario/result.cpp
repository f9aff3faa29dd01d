#include "src/scenario/result.hpp"

#include <sstream>
#include <stdexcept>

namespace leak::scenario {

void ScenarioResult::add_stats(std::string name, const RunningStats& s) {
  MetricStats m;
  m.count = s.count();
  m.mean = s.mean();
  m.stddev = s.stddev();
  m.min = s.count() ? s.min() : 0.0;
  m.max = s.count() ? s.max() : 0.0;
  stats.emplace_back(std::move(name), m);
}

double ScenarioResult::metric(std::string_view name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  throw std::out_of_range("ScenarioResult: no metric \"" + std::string(name) +
                          "\"");
}

bool ScenarioResult::has_metric(std::string_view name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return true;
  }
  return false;
}

json::Value ScenarioResult::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("scenario", scenario);
  doc.set("params", params.to_json());
  json::Value mj = json::Value::object();
  for (const auto& [n, v] : metrics) mj.set(n, v);
  doc.set("metrics", std::move(mj));
  if (!stats.empty()) {
    json::Value sj = json::Value::object();
    for (const auto& [n, s] : stats) {
      json::Value one = json::Value::object();
      one.set("count", static_cast<std::int64_t>(s.count));
      one.set("mean", s.mean);
      one.set("stddev", s.stddev);
      one.set("min", s.min);
      one.set("max", s.max);
      sj.set(n, std::move(one));
    }
    doc.set("stats", std::move(sj));
  }
  if (trials.has_value()) {
    json::Value tj = json::Value::object();
    json::Value cols = json::Value::array();
    for (const auto& h : trials->headers()) cols.push_back(h);
    tj.set("columns", std::move(cols));
    // 50k rows in the attack-lifetime result: build each array once, at
    // its exact size.
    json::Array rows;
    rows.reserve(trials->rows());
    for (std::size_t r = 0; r < trials->rows(); ++r) {
      const std::vector<std::string>& cells = trials->row(r);
      rows.emplace_back(json::Array(cells.begin(), cells.end()));
    }
    tj.set("rows", json::Value(std::move(rows)));
    doc.set("trials", std::move(tj));
  }
  json::Value meta = json::Value::object();
  meta.set("seed", static_cast<std::uint64_t>(seed));
  meta.set("threads", static_cast<std::int64_t>(threads));
  meta.set("git_describe", git_describe);
  meta.set("wall_ms", wall_ms);
  doc.set("meta", std::move(meta));
  return doc;
}

std::string ScenarioResult::trials_to_csv() const {
  return trials.has_value() ? trials->to_csv() : std::string{};
}

std::string ScenarioResult::to_text(std::size_t max_trial_rows) const {
  std::ostringstream os;
  os << "scenario: " << scenario << "\n";
  os << "seed=" << seed << " threads=" << threads << " wall_ms="
     << Table::fmt(wall_ms, 1) << " git=" << git_describe << "\n";
  {
    Table p({"parameter", "value"});
    for (const auto& [n, v] : params.items()) {
      p.add_row({n, ParamSet::value_to_string(v)});
    }
    os << "\nparameters:\n" << p.to_string();
  }
  if (!metrics.empty()) {
    Table m({"metric", "value"});
    for (const auto& [n, v] : metrics) m.add_row({n, Table::fmt_exact(v)});
    os << "\nmetrics:\n" << m.to_string();
  }
  if (!stats.empty()) {
    Table s({"sample", "count", "mean", "stddev", "min", "max"});
    for (const auto& [n, st] : stats) {
      s.add_row({n, std::to_string(st.count), Table::fmt(st.mean, 4),
                 Table::fmt(st.stddev, 4), Table::fmt(st.min, 4),
                 Table::fmt(st.max, 4)});
    }
    os << "\nper-trial stats:\n" << s.to_string();
  }
  if (trials.has_value() && trials->rows() > 0) {
    os << "\ntrial rows";
    if (trials->rows() > max_trial_rows) {
      Table head(trials->headers());
      for (std::size_t r = 0; r < max_trial_rows; ++r) {
        head.add_row(trials->row(r));
      }
      os << " (first " << max_trial_rows << " of " << trials->rows()
         << "; use --csv for all):\n"
         << head.to_string();
    } else {
      os << ":\n" << trials->to_string();
    }
  }
  return os.str();
}

}  // namespace leak::scenario
