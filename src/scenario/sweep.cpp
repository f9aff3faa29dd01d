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
    values.each(
        [&](const json::Field& v) { axis.values.push_back(p->from_json(v)); });
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

  auto results =
      run_cells(scenario, cells, config.parallel_cells ? config.threads : 1);
  out.cells.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.cells[i].params = std::move(cells[i]);
    out.cells[i].result = std::move(results[i]);
  }
  return out;
}

std::vector<ScenarioResult> run_cells(const Scenario& scenario,
                                      const std::vector<ParamSet>& cells,
                                      unsigned threads) {
  const runner::TrialRunner pool(threads);
  const bool pin = pool.threads() > 1 && cells.size() > 1;
  return pool.run(cells.size(), [&](std::size_t i) {
    if (!pin) return scenario.run(cells[i]);
    ParamSet pinned = cells[i];
    pinned.set("threads", std::int64_t{1});
    return scenario.run(pinned);
  });
}

json::Value sweep_document(const std::string& scenario,
                           const std::vector<SweepAxis>& axes,
                           json::Array cells) {
  json::Value doc = json::Value::object();
  doc.set("scenario", scenario);
  doc.set("axes", axes_to_json(axes));
  doc.set("cells", json::Value(std::move(cells)));
  return doc;
}

namespace {

/// A sweep table cell for one value of a sweep document, spelled as
/// ParamSet::value_to_string spells parameters ("?" when absent).
std::string table_text(const json::Value* v) {
  if (v == nullptr) return "?";
  switch (v->type()) {
    case json::Value::Type::kInt:
      return std::to_string(v->as_int());
    case json::Value::Type::kDouble:
      return Table::fmt_exact(v->as_double());
    case json::Value::Type::kString:
      return v->as_string();
    default:
      return v->dump();
  }
}

}  // namespace

Table sweep_table(const json::Value& doc) {
  const json::Field root(doc, "sweep");
  json::Fields f(root);
  std::vector<std::string> headers;
  f.get("axes").each([&](const json::Field& axis) {
    json::Fields a(axis);
    headers.push_back(a.get("param").string());
  });
  const std::size_t n_axes = headers.size();
  std::vector<std::vector<std::string>> rows;
  f.get("cells").each([&](const json::Field& cell) {
    json::Fields c(cell);
    const json::Field params = c.get("params");
    const json::Field metrics = c.get("metrics");
    if (!params.value().is_object()) params.fail("must be an object");
    if (!metrics.value().is_object()) metrics.fail("must be an object");
    if (rows.empty()) {
      for (const auto& m : metrics.value().as_object()) {
        headers.push_back(m.first);
      }
    }
    std::vector<std::string> row;
    for (std::size_t i = 0; i < headers.size(); ++i) {
      const json::Value& from = i < n_axes ? params.value() : metrics.value();
      row.push_back(table_text(from.find(headers[i])));
    }
    rows.push_back(std::move(row));
  });
  if (headers.empty()) {
    headers.push_back("cell");
    for (auto& row : rows) row.push_back("-");
  }
  Table t(std::move(headers));
  for (auto& row : rows) t.add_row(std::move(row));
  return t;
}

json::Value SweepResult::to_json() const {
  json::Array cj;
  cj.reserve(cells.size());
  for (const auto& cell : cells) cj.push_back(cell.result.to_json());
  return sweep_document(scenario, axes, std::move(cj));
}

std::string SweepResult::to_csv() const {
  return sweep_table(to_json()).to_csv();
}

std::string SweepResult::to_text() const {
  std::ostringstream os;
  os << "sweep: " << scenario << " (" << cells.size() << " cells";
  for (const auto& a : axes) {
    os << ", " << a.param << " x" << a.values.size();
  }
  os << ")\n";
  os << sweep_table(to_json()).to_string();
  return os.str();
}

}  // namespace leak::scenario
