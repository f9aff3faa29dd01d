#include "src/scenario/sweep.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/runner/trial_runner.hpp"
#include "src/support/parse.hpp"
#include "src/support/random.hpp"
#include "src/support/table.hpp"

namespace leak::scenario {

std::optional<std::string> parse_sweep_axis(const ScenarioSpec& spec,
                                            std::string_view text,
                                            SweepAxis* out) {
  const auto eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return "malformed sweep \"" + std::string(text) +
           "\" (expected key=v1,v2,... or key=lo:hi:step)";
  }
  const std::string param(parse::trim(text.substr(0, eq)));
  const std::string_view body = text.substr(eq + 1);
  const ParamSpec* p = spec.find(param);
  if (p == nullptr) {
    return "unknown parameter \"" + param + "\" for scenario \"" +
           spec.name() + "\"" + spec.known_params_hint();
  }

  SweepAxis axis;
  axis.param = param;

  // Numeric grid form lo:hi:step (two ':' separators, no commas).
  const bool numeric = p->type == ParamType::kInt ||
                       p->type == ParamType::kDouble;
  if (numeric && body.find(':') != std::string_view::npos) {
    std::vector<std::string_view> pieces;
    std::size_t start = 0;
    for (;;) {
      const auto colon = body.find(':', start);
      pieces.push_back(body.substr(
          start,
          colon == std::string_view::npos ? std::string_view::npos
                                          : colon - start));
      if (colon == std::string_view::npos) break;
      start = colon + 1;
    }
    if (pieces.size() != 3) {
      return "grid sweep \"" + std::string(body) +
             "\" must be lo:hi:step";
    }
    const auto lo = parse::real(pieces[0]);
    const auto hi = parse::real(pieces[1]);
    const auto step = parse::real(pieces[2]);
    if (!lo || !hi || !step || *step <= 0.0) {
      return "grid sweep \"" + std::string(body) +
             "\" needs finite lo:hi and step > 0";
    }
    if (*hi < *lo) {
      return "grid sweep \"" + std::string(body) + "\" has hi < lo";
    }
    // Inclusive of hi up to half a step of float slack.  The limit is
    // checked on the double: casting a quotient past size_t is UB.
    const double span = std::floor((*hi - *lo) / *step + 0.5);
    if (span >= 100000.0) {
      return "grid sweep \"" + std::string(body) + "\" expands to " +
             Table::fmt_exact(span + 1.0) + " values (limit 100000)";
    }
    const auto count = static_cast<std::size_t>(span) + 1;
    for (std::size_t i = 0; i < count; ++i) {
      const double x = *lo + static_cast<double>(i) * *step;
      if (x > *hi + 0.5 * *step) break;
      ParamValue v;
      if (p->type == ParamType::kInt) {
        const double rounded = std::round(x);
        if (std::fabs(rounded - x) > 1e-9) {
          return "grid sweep for int parameter \"" + param +
                 "\" produced non-integer " + Table::fmt_exact(x);
        }
        v = static_cast<std::int64_t>(rounded);
      } else {
        v = x;
      }
      if (auto err = p->check(v)) {
        return "parameter \"" + param + "\": " + *err;
      }
      axis.values.push_back(std::move(v));
    }
  } else {
    // Comma-list form.
    std::size_t start = 0;
    while (start <= body.size()) {
      const auto comma = body.find(',', start);
      const auto piece = body.substr(
          start, comma == std::string_view::npos ? std::string_view::npos
                                                 : comma - start);
      ParamValue v;
      if (auto err = spec.parse_value(param, piece, &v)) return err;
      axis.values.push_back(std::move(v));
      if (comma == std::string_view::npos) break;
      start = comma + 1;
    }
  }
  if (axis.values.empty()) {
    return "sweep over \"" + param + "\" has no values";
  }
  if (out != nullptr) *out = std::move(axis);
  return std::nullopt;
}

std::size_t sweep_cell_count(const std::vector<SweepAxis>& axes) {
  std::size_t n = 1;
  for (const auto& a : axes) n *= a.values.size();
  return n;
}

ParamSet sweep_cell_params(const ParamSet& base,
                           const std::vector<SweepAxis>& axes,
                           std::size_t index, bool vary_seed) {
  ParamSet cell = base;
  std::size_t rem = index;
  for (std::size_t a = axes.size(); a-- > 0;) {
    const auto& axis = axes[a];
    cell.set(axis.param, axis.values[rem % axis.values.size()]);
    rem /= axis.values.size();
  }
  if (vary_seed) {
    // An axis sweeping `seed` itself wins over the derived per-cell
    // seed (matching run_sweep's historical behaviour).
    bool axes_sweep_seed = false;
    for (const auto& a : axes) {
      if (a.param == "seed") axes_sweep_seed = true;
    }
    if (!axes_sweep_seed) {
      const StreamSeeder seeder(
          static_cast<std::uint64_t>(base.get_int("seed")));
      cell.set("seed",
               static_cast<std::int64_t>(seeder.seed_for(index) >> 1));
    }
  }
  return cell;
}

json::Value axes_to_json(const std::vector<SweepAxis>& axes) {
  json::Value doc = json::Value::array();
  for (const auto& a : axes) {
    json::Value one = json::Value::object();
    one.set("param", a.param);
    json::Value vals = json::Value::array();
    for (const auto& v : a.values) {
      std::visit([&vals](const auto& x) { vals.push_back(json::Value(x)); },
                 v);
    }
    one.set("values", std::move(vals));
    doc.push_back(std::move(one));
  }
  return doc;
}

std::optional<std::vector<SweepAxis>> axes_from_json(const ScenarioSpec& spec,
                                                     const json::Value& doc,
                                                     std::string* error) {
  try {
    return read_axes(spec, json::Field(doc, "axes"));
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

std::vector<SweepAxis> read_axes(const ScenarioSpec& spec,
                                 const json::Field& at) {
  std::vector<SweepAxis> axes;
  at.each([&](const json::Field& entry) {
    json::Fields f(entry);
    const json::Field param = f.get("param");
    SweepAxis axis;
    axis.param = param.string();
    const ParamSpec* p = spec.find(axis.param);
    if (p == nullptr) {
      param.fail("sweep axis \"" + axis.param +
                 "\" is not a parameter of scenario \"" + spec.name() +
                 "\"");
    }
    const json::Field values = f.get("values");
    values.each([&](const json::Field& v) {
      if (!v.value().is_string() || p->type == ParamType::kString) {
        axis.values.push_back(p->from_json(v));
        return;
      }
      // Stringly-typed values (SweepResult::to_json archives) go
      // through the spec's own parser, same as the CLI would.
      ParamValue out;
      if (auto err = spec.parse_value(axis.param, v.string(), &out)) {
        v.fail(*err);
      }
      axis.values.push_back(std::move(out));
    });
    if (axis.values.empty()) values.fail("has no values");
    f.finish();
    axes.push_back(std::move(axis));
  });
  return axes;
}

SweepResult run_sweep(const Scenario& scenario, const ParamSet& base,
                      std::vector<SweepAxis> axes,
                      const SweepConfig& config) {
  if (auto err = scenario.spec().validate(base)) {
    throw std::invalid_argument("sweep base: " + *err);
  }
  for (const auto& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("sweep axis \"" + axis.param +
                                  "\" has no values");
    }
    if (scenario.spec().find(axis.param) == nullptr) {
      throw std::invalid_argument("sweep axis \"" + axis.param +
                                  "\" is not a parameter of scenario \"" +
                                  scenario.spec().name() + "\"");
    }
  }

  SweepResult out;
  out.scenario = scenario.spec().name();
  out.axes = std::move(axes);
  // Cells come from the one canonical identity function — the same
  // one the serve job ledger uses — so a served cell re-runs
  // bit-identically to a foreground sweep cell.
  const std::size_t n = sweep_cell_count(out.axes);
  std::vector<ParamSet> cells;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cells.push_back(
        sweep_cell_params(base, out.axes, i, config.vary_seed));
  }

  out.cells.resize(cells.size());
  if (config.parallel_cells && cells.size() > 1) {
    // Outer parallelism: cells fan across the pool, each cell pinned
    // to one inner thread.  Bit-identical to the sequential path by
    // the drivers' thread-count-invariance guarantee.
    std::vector<ParamSet> pinned = cells;
    for (auto& c : pinned) c.set("threads", std::int64_t{1});
    const runner::TrialRunner pool(config.threads);
    auto results = pool.run(cells.size(), [&](std::size_t i) {
      return scenario.run(pinned[i]);
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out.cells[i].params = std::move(cells[i]);
      out.cells[i].result = std::move(results[i]);
    }
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out.cells[i].result = scenario.run(cells[i]);
      out.cells[i].params = std::move(cells[i]);
    }
  }
  return out;
}

namespace {

/// Summary table: swept params then the metric set of the first cell.
Table summary_table(const SweepResult& r) {
  std::vector<std::string> headers;
  for (const auto& a : r.axes) headers.push_back(a.param);
  if (!r.cells.empty()) {
    for (const auto& m : r.cells.front().result.metrics) {
      headers.push_back(m.first);
    }
  }
  if (headers.empty()) headers.push_back("cell");
  Table t(std::move(headers));
  for (const auto& cell : r.cells) {
    std::vector<std::string> row;
    for (const auto& a : r.axes) {
      const ParamValue* v = cell.params.find(a.param);
      row.push_back(v != nullptr ? ParamSet::value_to_string(*v) : "?");
    }
    for (const auto& m : r.cells.front().result.metrics) {
      row.push_back(cell.result.has_metric(m.first)
                        ? Table::fmt_exact(cell.result.metric(m.first))
                        : "?");
    }
    if (row.empty()) row.push_back("-");
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace

json::Value SweepResult::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("scenario", scenario);
  json::Value aj = json::Value::array();
  for (const auto& a : axes) {
    json::Value one = json::Value::object();
    one.set("param", a.param);
    json::Value vals = json::Value::array();
    for (const auto& v : a.values) {
      vals.push_back(ParamSet::value_to_string(v));
    }
    one.set("values", std::move(vals));
    aj.push_back(std::move(one));
  }
  doc.set("axes", std::move(aj));
  json::Value cj = json::Value::array();
  for (const auto& cell : cells) cj.push_back(cell.result.to_json());
  doc.set("cells", std::move(cj));
  return doc;
}

std::string SweepResult::to_csv() const {
  return summary_table(*this).to_csv();
}

std::string SweepResult::to_text() const {
  std::ostringstream os;
  os << "sweep: " << scenario << " (" << cells.size() << " cells";
  for (const auto& a : axes) {
    os << ", " << a.param << " x" << a.values.size();
  }
  os << ")\n";
  os << summary_table(*this).to_string();
  return os.str();
}

}  // namespace leak::scenario
