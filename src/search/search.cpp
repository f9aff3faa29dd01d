#include "src/search/search.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/runner/trial_runner.hpp"
#include "src/search/journal.hpp"
#include "src/support/table.hpp"

namespace leak::search {

namespace {

using scenario::ParamSet;
using scenario::SweepAxis;

/// Row-major flat index of a candidate (last axis fastest) — the same
/// expansion order as the sweep engine, so sweep_cell_params is the
/// single source of candidate identity.
[[nodiscard]] std::size_t flat_index(const std::vector<SweepAxis>& axes,
                                     const std::vector<std::size_t>& cand) {
  std::size_t flat = 0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    flat = flat * axes[a].values.size() + cand[a];
  }
  return flat;
}

[[nodiscard]] bool better(bool maximize, double v, double incumbent) {
  return maximize ? v > incumbent : v < incumbent;
}

/// Budgeted, journal-backed batch evaluator.  All evaluation order and
/// journal appends are in candidate order, independent of thread count.
class Evaluator {
 public:
  Evaluator(const scenario::Scenario& sc, const Objective& obj,
            const std::vector<SweepAxis>& axes, const SearchOptions& opts,
            EvalJournal* journal, SearchResult* result)
      : sc_(sc),
        obj_(obj),
        axes_(axes),
        opts_(opts),
        journal_(journal),
        result_(result),
        pool_(opts.threads) {}

  [[nodiscard]] bool exhausted() const { return exhausted_; }

  [[nodiscard]] bool has(const std::vector<std::size_t>& cand) const {
    return memo_.find(cand) != memo_.end();
  }

  [[nodiscard]] double value_of(const std::vector<std::size_t>& cand) const {
    return memo_.at(cand);
  }

  /// Candidate params: the sweep engine's canonical cell identity for
  /// grid candidates, the unmodified base for the baseline point.
  [[nodiscard]] ParamSet params_of(
      const std::vector<std::size_t>& cand) const {
    if (cand.empty()) return obj_.base;
    return scenario::sweep_cell_params(obj_.base, axes_,
                                       flat_index(axes_, cand),
                                       /*vary_seed=*/false);
  }

  /// Make every candidate's value available, consuming budget for each
  /// candidate not yet visited this run (journal replays included, so
  /// a resumed search stops exactly where the uninterrupted one
  /// would).  Returns false when the budget ran out before the batch
  /// finished — the caller must stop without deciding anything.
  [[nodiscard]] bool ensure(
      const std::vector<std::vector<std::size_t>>& cands) {
    std::vector<std::vector<std::size_t>> fresh;
    for (const auto& cand : cands) {
      if (memo_.find(cand) != memo_.end()) continue;
      if (std::find(fresh.begin(), fresh.end(), cand) != fresh.end()) {
        continue;
      }
      if (result_->evaluations >= opts_.budget) {
        exhausted_ = true;
        break;
      }
      ++result_->evaluations;
      if (journal_ != nullptr) {
        const auto it = journal_->cache().find(cand);
        if (it != journal_->cache().end()) {
          memo_[cand] = it->second;
          ++result_->cache_hits;
          result_->history.push_back({cand, it->second, /*cached=*/true});
          continue;
        }
      }
      fresh.push_back(cand);
    }
    run_fresh(fresh);
    return !exhausted_;
  }

 private:
  void run_fresh(const std::vector<std::vector<std::size_t>>& fresh) {
    if (fresh.empty()) return;
    const bool parallel = pool_.threads() > 1 && fresh.size() > 1;
    const auto values = pool_.run(fresh.size(), [&](std::size_t i) {
      ParamSet p = params_of(fresh[i]);
      // Parallel candidates pin their inner fan-out to one thread
      // (exactly like run_sweep --parallel-cells); every scenario is
      // bit-identical across thread counts, so the value is the same
      // either way — this only moves where the parallelism sits.
      if (parallel) p.set("threads", std::int64_t{1});
      const scenario::ScenarioResult res = sc_.run(p);
      if (!res.has_metric(obj_.metric)) {
        std::string msg = "objective metric \"" + obj_.metric +
                          "\" is not produced by scenario \"" + obj_.scenario +
                          "\" (metrics:";
        for (const auto& [name, unused] : res.metrics) {
          static_cast<void>(unused);
          msg += " " + name;
        }
        msg += ")";
        throw std::invalid_argument(msg);
      }
      return res.metric(obj_.metric);
    });
    // Merge and journal strictly in candidate order.
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      memo_[fresh[i]] = values[i];
      result_->history.push_back({fresh[i], values[i], /*cached=*/false});
      if (journal_ != nullptr &&
          !journal_->append(fresh[i], params_of(fresh[i]), values[i])) {
        throw std::runtime_error("cannot append to evaluation journal");
      }
    }
  }

  const scenario::Scenario& sc_;
  const Objective& obj_;
  const std::vector<SweepAxis>& axes_;
  const SearchOptions& opts_;
  EvalJournal* journal_;
  SearchResult* result_;
  runner::TrialRunner pool_;
  /// Ordered map (leaklint D4: src/search is a kernel/reduction TU).
  std::map<std::vector<std::size_t>, double> memo_;
  bool exhausted_ = false;
};

/// Coarse seeding grid: the cartesian product of {first, middle, last}
/// per axis, in row-major order (last axis fastest).
[[nodiscard]] std::vector<std::vector<std::size_t>> seed_candidates(
    const std::vector<SweepAxis>& axes) {
  std::vector<std::vector<std::size_t>> per_axis;
  std::size_t total = 1;
  for (const auto& axis : axes) {
    const std::size_t len = axis.values.size();
    std::vector<std::size_t> picks{0};
    if (len > 2) picks.push_back(len / 2);
    if (len > 1) picks.push_back(len - 1);
    total *= picks.size();
    per_axis.push_back(std::move(picks));
  }
  std::vector<std::vector<std::size_t>> out;
  out.reserve(total);
  for (std::size_t k = 0; k < total; ++k) {
    std::size_t rem = k;
    std::vector<std::size_t> cand(axes.size());
    for (std::size_t a = axes.size(); a-- > 0;) {
      cand[a] = per_axis[a][rem % per_axis[a].size()];
      rem /= per_axis[a].size();
    }
    out.push_back(std::move(cand));
  }
  return out;
}

}  // namespace

SearchResult run_search(const scenario::Scenario& sc,
                        const Objective& objective,
                        std::vector<SweepAxis> axes,
                        const SearchOptions& options) {
  if (axes.empty()) {
    throw std::invalid_argument("search needs at least one axis");
  }
  for (const auto& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("axis \"" + axis.param +
                                  "\" has no values");
    }
  }
  if (options.budget == 0) {
    throw std::invalid_argument("search budget must be >= 1");
  }
  if (auto err = sc.spec().validate(objective.base)) {
    throw std::invalid_argument(*err);
  }

  SearchResult result;
  result.scenario = sc.spec().name();
  result.metric = objective.metric;
  result.maximize = objective.maximize;
  result.axes = axes;
  result.base_params = objective.base;
  result.budget = options.budget;
  result.grid_size = 1;
  for (const auto& axis : axes) result.grid_size *= axis.values.size();

  std::optional<EvalJournal> journal;
  if (!options.journal_path.empty()) {
    std::string error;
    journal = EvalJournal::open(options.journal_path, objective, axes, &error);
    if (!journal) throw std::invalid_argument(error);
    result.journal_repair = journal->repaired_tail();
  }

  Evaluator ev(sc, objective, axes, options,
               journal ? &*journal : nullptr, &result);

  // The fixed strategy (unmodified base) is always evaluation #1: the
  // report compares the searched best against it.
  static_cast<void>(ev.ensure({{}}));
  result.baseline_value = ev.value_of({});

  // Phase 1: coarse grid seeding.
  const auto seeds = seed_candidates(axes);
  const bool seeded = ev.ensure(seeds);
  std::vector<std::size_t> best;
  double best_value = 0.0;
  bool have_best = false;
  for (const auto& cand : seeds) {
    if (!ev.has(cand)) continue;  // budget may have cut the batch short
    const double v = ev.value_of(cand);
    if (!have_best || better(result.maximize, v, best_value) ||
        (v == best_value && cand < best)) {
      best = cand;
      best_value = v;
      have_best = true;
    }
  }
  if (!have_best) {
    // The budget covered only the baseline.
    result.budget_exhausted = true;
    result.best_params = objective.base;
    result.best_value = result.baseline_value;
    return result;
  }

  // Phase 2: pattern descent — per-axis +/- step probes from the
  // incumbent, step halving on a failed pass, convergence after
  // `patience` failed unit-step passes.
  std::vector<std::size_t> steps(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    steps[a] = std::max<std::size_t>(1, axes[a].values.size() / 4);
  }
  std::size_t unit_fails = 0;
  bool searching = seeded;
  while (searching) {
    bool moved = false;
    for (std::size_t a = 0; a < axes.size() && searching; ++a) {
      const std::size_t len = axes[a].values.size();
      if (len <= 1) continue;
      std::vector<std::vector<std::size_t>> neighbors;
      std::vector<std::size_t> lo = best;
      lo[a] = best[a] >= steps[a] ? best[a] - steps[a] : 0;
      if (lo != best) neighbors.push_back(std::move(lo));
      std::vector<std::size_t> hi = best;
      hi[a] = std::min(best[a] + steps[a], len - 1);
      if (hi != best && (neighbors.empty() || hi != neighbors.front())) {
        neighbors.push_back(std::move(hi));
      }
      if (neighbors.empty()) continue;
      if (!ev.ensure(neighbors)) {
        searching = false;
        break;
      }
      // The better of the probes; equal values pick the
      // lexicographically smaller candidate; only a strict improvement
      // over the incumbent moves (ties never oscillate).
      const std::vector<std::size_t>* pick = nullptr;
      double pick_value = 0.0;
      for (const auto& nb : neighbors) {
        const double v = ev.value_of(nb);
        if (pick == nullptr || better(result.maximize, v, pick_value) ||
            (v == pick_value && nb < *pick)) {
          pick = &nb;
          pick_value = v;
        }
      }
      if (pick != nullptr && better(result.maximize, pick_value, best_value)) {
        best = *pick;
        best_value = pick_value;
        moved = true;
      }
    }
    if (!searching) break;
    if (moved) {
      unit_fails = 0;
      continue;
    }
    bool at_unit = true;
    for (const std::size_t s : steps) at_unit = at_unit && s == 1;
    if (at_unit) {
      if (++unit_fails >= std::max<std::size_t>(1, options.patience)) {
        result.converged = true;
        searching = false;
      }
    } else {
      for (auto& s : steps) s = std::max<std::size_t>(1, s / 2);
    }
  }

  result.budget_exhausted = ev.exhausted();
  result.best_cand = best;
  result.best_params = ev.params_of(best);
  result.best_value = best_value;
  return result;
}

json::Value SearchResult::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("scenario", scenario);
  doc.set("metric", metric);
  doc.set("maximize", maximize);
  doc.set("axes", scenario::axes_to_json(axes));
  doc.set("grid_size", static_cast<std::int64_t>(grid_size));
  doc.set("budget", static_cast<std::int64_t>(budget));
  doc.set("evaluations", static_cast<std::int64_t>(evaluations));
  doc.set("cache_hits", static_cast<std::int64_t>(cache_hits));
  doc.set("converged", converged);
  doc.set("budget_exhausted", budget_exhausted);
  json::Value baseline = json::Value::object();
  baseline.set("params", base_params.to_json());
  baseline.set("value", baseline_value);
  doc.set("baseline", std::move(baseline));
  json::Value best = json::Value::object();
  json::Value cand = json::Value::array();
  for (const std::size_t i : best_cand) {
    cand.push_back(static_cast<std::int64_t>(i));
  }
  best.set("cand", std::move(cand));
  best.set("params", best_params.to_json());
  best.set("value", best_value);
  doc.set("best", std::move(best));
  json::Value hist = json::Value::array();
  for (const auto& e : history) {
    json::Value rec = json::Value::object();
    json::Value indices = json::Value::array();
    for (const std::size_t i : e.cand) {
      indices.push_back(static_cast<std::int64_t>(i));
    }
    rec.set("cand", std::move(indices));
    rec.set("value", e.value);
    rec.set("cached", e.cached);
    hist.push_back(std::move(rec));
  }
  doc.set("history", std::move(hist));
  return doc;
}

std::string SearchResult::to_text() const {
  std::string out = "search " + scenario + " / " + metric +
                    (maximize ? " (maximize)" : " (minimize)") + "\n";
  out += "  grid " + std::to_string(grid_size) + " candidates, budget " +
         std::to_string(budget) + ": " + std::to_string(evaluations) +
         " evaluations (" + std::to_string(cache_hits) + " journal hits), " +
         (converged          ? "converged"
          : budget_exhausted ? "budget exhausted"
                             : "stopped") +
         "\n";
  out += "  baseline (fixed strategy): " + Table::fmt_exact(baseline_value) +
         "\n";
  out += "  best:";
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const scenario::ParamValue& v =
        a < best_cand.size() ? axes[a].values[best_cand[a]]
                             : *base_params.find(axes[a].param);
    out += " " + axes[a].param + "=" +
           scenario::ParamSet::value_to_string(v);
  }
  out += " -> " + Table::fmt_exact(best_value) + "\n";
  return out;
}

std::string SearchResult::history_to_csv() const {
  std::string out;
  for (const auto& axis : axes) out += axis.param + ",";
  out += "value,cached\n";
  for (const auto& e : history) {
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const scenario::ParamValue& v =
          e.cand.empty() ? *base_params.find(axes[a].param)
                         : axes[a].values[e.cand[a]];
      out += scenario::ParamSet::value_to_string(v) + ",";
    }
    out += Table::fmt_exact(e.value);
    out += e.cached ? ",true\n" : ",false\n";
  }
  return out;
}

json::Value boost_report(const scenario::Scenario& sc,
                         const scenario::ParamSet& params,
                         const std::vector<std::int64_t>& ladder,
                         unsigned boost_percent, std::string* text_out) {
  const auto run_point = [&](std::int64_t n_byz, std::int64_t boost) {
    ParamSet p = params;
    p.set("n_byzantine", n_byz);
    p.set("proposer_boost", boost);
    return sc.run(p);
  };
  const std::int64_t n_honest = params.get_int("n_honest");
  Table table({"n_byzantine", "adversary_stake", "mean_stall_off",
               "stall_frac_off", "mean_stall_on", "stall_frac_on"});
  json::Value rows = json::Value::array();
  std::optional<double> min_stake_off;
  std::optional<double> min_stake_on;
  for (const std::int64_t nb : ladder) {
    const auto off = run_point(nb, 0);
    const auto on =
        run_point(nb, static_cast<std::int64_t>(boost_percent));
    const double stake = static_cast<double>(nb) /
                         static_cast<double>(nb + n_honest);
    const double frac_off =
        off.metric("stall_exceeds_leak_trigger_fraction");
    const double frac_on = on.metric("stall_exceeds_leak_trigger_fraction");
    if (!min_stake_off && frac_off >= 0.5) min_stake_off = stake;
    if (!min_stake_on && frac_on >= 0.5) min_stake_on = stake;
    table.add_row({std::to_string(nb), Table::fmt_exact(stake),
                   Table::fmt_exact(off.metric("mean_finality_stall_epochs")),
                   Table::fmt_exact(frac_off),
                   Table::fmt_exact(on.metric("mean_finality_stall_epochs")),
                   Table::fmt_exact(frac_on)});
    json::Value row = json::Value::object();
    row.set("n_byzantine", nb);
    row.set("adversary_stake", stake);
    row.set("mean_stall_off", off.metric("mean_finality_stall_epochs"));
    row.set("stall_frac_off", frac_off);
    row.set("mean_stall_on", on.metric("mean_finality_stall_epochs"));
    row.set("stall_frac_on", frac_on);
    rows.push_back(std::move(row));
  }
  json::Value doc = json::Value::object();
  doc.set("boost_percent", static_cast<std::int64_t>(boost_percent));
  doc.set("criterion", "stall_exceeds_leak_trigger_fraction >= 0.5");
  doc.set("rows", std::move(rows));
  doc.set("min_stalling_stake_boost_off",
          min_stake_off ? json::Value(*min_stake_off) : json::Value(nullptr));
  doc.set("min_stalling_stake_boost_on",
          min_stake_on ? json::Value(*min_stake_on) : json::Value(nullptr));
  if (text_out != nullptr) {
    std::string text = "proposer-boost countermeasure (boost " +
                       std::to_string(boost_percent) +
                       "%) against the searched strategy\n";
    text += table.to_string();
    text += "min adversary stake stalling finality: boost off ";
    text += min_stake_off ? Table::fmt_exact(*min_stake_off)
                          : std::string("n/a");
    text += ", boost on ";
    text +=
        min_stake_on ? Table::fmt_exact(*min_stake_on) : std::string("n/a");
    text += "\n";
  *text_out = std::move(text);
  }
  return doc;
}

}  // namespace leak::search
