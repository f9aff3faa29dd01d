// leakctl — command-line front end over the scenario registry: every
// attack/leak experiment in the library is a named, parameterized,
// sweepable artifact, runnable without writing code.  `run` and `sweep`
// execute in the foreground and `search` optimizes adversary knobs.
// The submit/status/resume/results/serve family runs sweeps as durable,
// resumable jobs (src/serve): cells are sharded across worker
// subprocesses and checkpointed one fsync'd record at a time into an
// append-only store, so a job survives kill -9 at any instant and
// resumes by re-running only the missing cells (docs/OPERATIONS.md).
//
// The command line is two tables read by one parser: kVerbs holds a row
// per command (its positional arguments and handler) and kFlags a row
// per option (its value, the commands that read it, its help text).  A
// command refuses every option whose row does not name it, and usage()
// prints the option list from kFlags; tools/cli_reference.py turns that
// text into docs/CLI.md.  `leakctl list --json` feeds
// tools/scenario_catalog.py, which generates the README "Scenario
// catalog" section (both checked fresh in CI).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/faults/schedule.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/sweep.hpp"
#include "src/search/search.hpp"
#include "src/serve/job.hpp"
#include "src/serve/service.hpp"
#include "src/support/parse.hpp"
#include "src/support/report.hpp"

namespace {

using namespace leak;

/// Everything a command line sets.  Each field is written by the kFlags
/// rows that name it, and a command only accepts the rows it reads.
struct Options {
  // Set for the commands whose first positional names a scenario.
  const scenario::Scenario* scenario = nullptr;
  std::vector<std::string> args;    // positionals after the scenario
  std::vector<std::string> sets;    // --set, the shorthands, --faults
  std::vector<std::string> sweeps;  // --sweep
  std::vector<std::string> axes;    // --axis
  std::string params_path;          // empty = no archived-params replay
  std::string json_path;            // empty = no JSON artifact
  std::string csv_path;             // empty = no CSV artifact
  std::string journal_path;
  std::string jobs_dir = "jobs";
  bool as_json = false;  // the bare --json of list, describe and status
  bool names = false;
  bool quiet = false;
  bool vary_seed = false;
  bool parallel_cells = false;
  bool boost_report = false;
  bool canonical = false;
  bool once = false;
  std::size_t budget = 0;  // 0 = the resolved config's default
  std::size_t patience = 1;
  std::size_t max_cells = 0;
  unsigned search_threads = 0;
  unsigned boost_percent = 40;
  unsigned workers = 0;
  unsigned max_retries = 0;
  unsigned poll_ms = 1000;
};

int fail(const std::string& msg) {
  std::fprintf(stderr, "leakctl: %s\n", msg.c_str());
  return 2;
}

// --- option rows -------------------------------------------------------

/// A kFlags row's effect: store `value` (empty for a bare flag); false
/// with *error set when the value is malformed.
using Apply = bool (*)(Options&, const char* flag, const std::string& value,
                       std::string* error);

template <auto Field>
bool store(Options& o, const char*, const std::string& v, std::string*) {
  o.*Field = v;
  return true;
}

template <auto Field>
bool append(Options& o, const char*, const std::string& v, std::string*) {
  (o.*Field).push_back(v);
  return true;
}

template <auto Field>
bool enable(Options& o, const char*, const std::string&, std::string*) {
  o.*Field = true;
  return true;
}

template <auto Field>
bool count(Options& o, const char* flag, const std::string& v,
           std::string* error) {
  using T = std::remove_reference_t<decltype(o.*Field)>;
  const auto parsed = parse::u64(v);
  if (!parsed || *parsed > std::numeric_limits<T>::max()) {
    *error = std::string(flag) + " needs an integer in [0, " +
             std::to_string(std::numeric_limits<T>::max()) + "]";
    return false;
  }
  o.*Field = static_cast<T>(*parsed);
  return true;
}

/// --paths/--seed/--threads/--block N: --set with the flag's name.
bool shorthand(Options& o, const char* flag, const std::string& v,
               std::string*) {
  o.sets.push_back(std::string(flag + 2) + "=" + v);
  return true;
}

/// --faults FILE: load the schedule and rewrite it as a
/// `faults=<compact JSON>` --set entry, so sweep cells, serve jobs and
/// search journals stay self-contained and resume without the file.
bool faults_file(Options& o, const char*, const std::string& path,
                 std::string* error) {
  try {
    o.sets.push_back("faults=" +
                     faults::FaultSchedule::load_file(path).dump());
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
  return true;
}

/// Command bits: a kFlags row names the commands that read it.
enum : unsigned {
  kList = 1U << 0,
  kDescribe = 1U << 1,
  kRun = 1U << 2,
  kSweep = 1U << 3,
  kSearch = 1U << 4,
  kSubmit = 1U << 5,
  kStatus = 1U << 6,
  kResume = 1U << 7,
  kResults = 1U << 8,
  kServe = 1U << 9,
};

struct Flag {
  const char* name;
  const char* value;  // placeholder; nullptr = a bare flag
  unsigned verbs;
  const char* help;  // '\n' starts a continuation line
  Apply apply;
};

/// Every option.  usage() prints a heading whenever the command set
/// changes from one row to the next, so rows read by the same commands
/// stay together.
constexpr Flag kFlags[] = {
    {"--set", "k=v", kRun | kSweep | kSearch | kSubmit,
     "set a parameter (repeatable)", append<&Options::sets>},
    {"--paths", "N", kRun | kSweep | kSearch | kSubmit,
     "shorthand for --set paths=N", shorthand},
    {"--seed", "N", kRun | kSweep | kSearch | kSubmit,
     "shorthand for --set seed=N", shorthand},
    {"--threads", "N", kRun | kSweep | kSearch | kSubmit,
     "shorthand for --set threads=N", shorthand},
    {"--block", "N", kRun | kSweep | kSearch | kSubmit,
     "shorthand for --set block=N", shorthand},
    {"--faults", "FILE", kRun | kSweep | kSearch | kSubmit,
     "load a fault-schedule JSON file (an ordered\n"
     "timeline of partition/latency/loss/outage\n"
     "events) and pass it inline as the scenario's\n"
     "`faults` parameter",
     faults_file},
    {"--params", "FILE", kRun | kSubmit,
     "replay archived parameters (a params JSON\n"
     "object or a full --json report; --set wins)",
     store<&Options::params_path>},
    {"--sweep", "k=v1,v2,...", kSweep | kSubmit,
     "add a sweep axis, a list or an inclusive\n"
     "k=lo:hi:step grid (repeatable)",
     append<&Options::sweeps>},
    {"--vary-seed", nullptr, kSweep | kSubmit,
     "per-cell seeds from (seed, cell index)", enable<&Options::vary_seed>},
    {"--parallel-cells", nullptr, kSweep, "fan cells across the thread pool",
     enable<&Options::parallel_cells>},
    {"--axis", "k=lo:hi:step", kSearch,
     "add a search axis; overrides a shipped\n"
     "config's axis over the same parameter",
     append<&Options::axes>},
    {"--budget", "N", kSearch,
     "distinct candidate evaluations, journal\n"
     "replays included (default per config: 48)",
     count<&Options::budget>},
    {"--patience", "N", kSearch,
     "failed unit-step passes before convergence (1)",
     count<&Options::patience>},
    {"--search-threads", "N", kSearch,
     "parallel candidate evaluations and\n"
     "boost-report runs (0 = auto)",
     count<&Options::search_threads>},
    {"--journal", "PATH", kSearch,
     "durable evaluation journal; a killed search\n"
     "resumes from it byte-identically",
     store<&Options::journal_path>},
    {"--out", "PATH", kSearch, "alias for --json PATH",
     store<&Options::json_path>},
    {"--boost-report", nullptr, kSearch,
     "rerun the best strategy across an n_byzantine\n"
     "ladder with proposer boost off vs on",
     enable<&Options::boost_report>},
    {"--boost-percent", "N", kSearch,
     "boost strength for the report (default 40)",
     count<&Options::boost_percent>},
    {"--json", "PATH", kRun | kSweep | kSearch | kResults,
     "write the JSON report to PATH (\"-\" = stdout;\n"
     "the human-readable report then goes to stderr)",
     store<&Options::json_path>},
    {"--csv", "PATH", kRun | kSweep | kSearch | kResults,
     "write the CSV (trial rows / sweep cells /\n"
     "search history) to PATH (\"-\" = stdout, as\n"
     "for --json; not both)",
     store<&Options::csv_path>},
    {"--quiet", nullptr, kRun | kSweep | kSearch | kResume | kServe,
     "suppress the human-readable report", enable<&Options::quiet>},
    {"--json", nullptr, kList | kDescribe | kStatus,
     "print JSON instead of a table", enable<&Options::as_json>},
    {"--names", nullptr, kList, "print the scenario names, one per line",
     enable<&Options::names>},
    {"--jobs-dir", "DIR", kSubmit | kStatus | kResume | kResults | kServe,
     "job store directory (default \"jobs\")", store<&Options::jobs_dir>},
    {"--workers", "N", kSubmit | kResume | kServe,
     "worker subprocesses (submit: the job's\n"
     "default; resume and serve: an override)",
     count<&Options::workers>},
    {"--max-retries", "N", kSubmit | kResume | kServe,
     "per-cell retry budget on worker death\n"
     "(submit: the job's default; resume and\n"
     "serve: an override)",
     count<&Options::max_retries>},
    {"--max-cells", "N", kResume | kServe,
     "stop a job's run after N newly-executed cells",
     count<&Options::max_cells>},
    {"--canonical", nullptr, kResults,
     "zero wall-clock metadata in the output", enable<&Options::canonical>},
    {"--once", nullptr, kServe,
     "one pass over incomplete jobs, then exit\n"
     "(2 if a job is broken or its run failed)",
     enable<&Options::once>},
    {"--poll-ms", "N", kServe, "sleep between passes (default 1000)",
     count<&Options::poll_ms>},
};

// --- commands ----------------------------------------------------------

/// Where the human-readable report goes: stderr when an artifact is
/// written to stdout ("-"), so that stdout holds that one document.
std::FILE* report_stream(const Options& o) {
  return o.json_path == "-" || o.csv_path == "-" ? stderr : stdout;
}

int emit_artifacts(const json::Value& doc, const std::string& csv,
                   const Options& o) {
  if (!o.json_path.empty()) {
    if (!reporting::write_json(doc, o.json_path)) {
      return fail("cannot write " + o.json_path);
    }
    if (o.json_path != "-") {
      std::fprintf(report_stream(o), "(wrote %s)\n", o.json_path.c_str());
    }
  }
  if (!o.csv_path.empty()) {
    if (!reporting::write_text(csv, o.csv_path)) {
      return fail("cannot write " + o.csv_path);
    }
    if (o.csv_path != "-") {
      std::fprintf(report_stream(o), "(wrote %s)\n", o.csv_path.c_str());
    }
  }
  return 0;
}

int cmd_list(const Options& o) {
  const auto& registry = scenario::builtin_registry();
  if (o.as_json && o.names) {
    return fail("list takes --json or --names, not both");
  }
  if (o.as_json) {
    json::Value doc = json::Value::array();
    for (const auto* s : registry.all()) doc.push_back(s->spec().to_json());
    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
  }
  if (o.names) {
    for (const auto* s : registry.all()) {
      std::printf("%s\n", s->spec().name().c_str());
    }
    return 0;
  }
  Table t({"scenario", "params", "description"});
  for (const auto* s : registry.all()) {
    t.add_row({s->spec().name(), std::to_string(s->spec().params().size()),
               s->spec().description()});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_describe(const Options& o) {
  const scenario::ScenarioSpec& spec = o.scenario->spec();
  if (o.as_json) {
    std::printf("%s\n", spec.to_json().dump(2).c_str());
    return 0;
  }
  std::printf("%s — %s\n\n", spec.name().c_str(), spec.description().c_str());
  Table t({"parameter", "type", "default", "constraints", "description"});
  for (const auto& p : spec.params()) {
    std::string constraints;
    if (p.min_value) constraints += ">= " + Table::fmt_exact(*p.min_value);
    if (p.max_value) {
      if (!constraints.empty()) constraints += ", ";
      constraints += "<= " + Table::fmt_exact(*p.max_value);
    }
    if (!p.choices.empty()) {
      for (const auto& c : p.choices) {
        if (!constraints.empty()) constraints += "|";
        constraints += c;
      }
    }
    t.add_row({p.name, scenario::param_type_name(p.type),
               scenario::ParamSet::value_to_string(p.default_value),
               constraints, p.description});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

/// Load the --params replay file into a ParamSet validated against the
/// scenario's spec.  Accepts either a bare params JSON object or a
/// full ScenarioResult report, whose "params" member is then used.  A
/// sweep document (a "cells" array of reports, no "params") holds one
/// params set per cell, so it is refused with a pointer to the cells.
std::optional<scenario::ParamSet> load_params_file(
    const scenario::Scenario& sc, const std::string& path,
    std::string* error) {
  const auto doc = json::Value::load_file(path, error);
  if (!doc) return std::nullopt;
  if (doc->is_object() && doc->find("params") == nullptr &&
      doc->find("cells") != nullptr) {
    *error = path + ": a sweep document holds one params set per cell; "
             "save one element of its \"cells\" array (that cell's "
             "report) to a file and replay that";
    return std::nullopt;
  }
  // A full report replays the scenario it recorded.  Archives produced
  // by sweeps carry "axes": validate them against this scenario's spec
  // even though a plain `run` replay only uses the params, since a
  // grid axis naming a parameter the scenario does not declare means
  // the file belongs to a different experiment.
  const bool object = doc->is_object();
  const json::Value* params = object ? doc->find("params") : nullptr;
  const json::Value* name = params ? doc->find("scenario") : nullptr;
  const json::Value* axes = object ? doc->find("axes") : nullptr;
  std::string why;
  std::optional<scenario::ParamSet> set;
  if (name != nullptr &&
      (!name->is_string() || name->as_string() != sc.spec().name())) {
    why = "archived scenario " + name->dump() + " does not match \"" +
          sc.spec().name() + "\"";
  } else if (axes == nullptr ||
             scenario::axes_from_json(sc.spec(), *axes, &why)) {
    set = sc.spec().params_from_json(params ? *params : *doc, &why);
  }
  if (!set) *error = path + ": " + why;
  return set;
}

/// The base params and sweep axes of run, sweep and submit.
struct Inputs {
  scenario::ParamSet base;
  std::vector<scenario::SweepAxis> axes;
};

/// Build the inputs in one order: the scenario's defaults, then the
/// --params replay, then each --set (shorthands and --faults included)
/// in command-line order, then the --sweep axes.
std::optional<Inputs> read_inputs(const Options& o, std::string* error) {
  const scenario::ScenarioSpec& spec = o.scenario->spec();
  Inputs in{spec.defaults(), {}};
  if (!o.params_path.empty()) {
    auto replayed = load_params_file(*o.scenario, o.params_path, error);
    if (!replayed) return std::nullopt;
    in.base = std::move(*replayed);
  }
  for (const auto& kv : o.sets) {
    if (auto err = spec.apply_kv(kv, &in.base)) {
      *error = *err;
      return std::nullopt;
    }
  }
  for (const auto& text : o.sweeps) {
    scenario::SweepAxis axis;
    if (auto err = scenario::parse_sweep_axis(spec, text, &axis)) {
      *error = *err;
      return std::nullopt;
    }
    in.axes.push_back(std::move(axis));
  }
  return in;
}

int cmd_run(const Options& o) {
  std::string error;
  const auto in = read_inputs(o, &error);
  if (!in) return fail(error);
  scenario::ScenarioResult result;
  try {
    result = o.scenario->run(in->base);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  if (!o.quiet) std::fprintf(report_stream(o), "%s", result.to_text().c_str());
  return emit_artifacts(result.to_json(), result.trials_to_csv(), o);
}

int cmd_sweep(const Options& o) {
  if (o.sweeps.empty()) {
    return fail("sweep needs at least one --sweep k=v1,v2,...");
  }
  std::string error;
  auto in = read_inputs(o, &error);
  if (!in) return fail(error);
  scenario::SweepConfig config;
  config.vary_seed = o.vary_seed;
  config.parallel_cells = o.parallel_cells;
  // With --parallel-cells the pool size comes from the threads
  // parameter (on a pool of two or more, run_cells pins each cell to
  // one inner thread).
  config.threads = static_cast<unsigned>(in->base.get_int("threads"));
  scenario::SweepResult result;
  try {
    result = scenario::run_sweep(*o.scenario, in->base, std::move(in->axes),
                                 config);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  if (!o.quiet) std::fprintf(report_stream(o), "%s", result.to_text().c_str());
  return emit_artifacts(result.to_json(), result.to_csv(), o);
}

int cmd_search(const Options& o) {
  if (o.args.empty()) {
    std::string msg = "search needs an objective (shipped configs:";
    for (const auto& c : search::builtin_search_configs()) {
      msg += " " + c.name;
    }
    msg += "; or scenario:metric[:max|min])";
    return fail(msg);
  }
  const std::string& objective = o.args.front();
  const auto& registry = scenario::builtin_registry();
  // Resolve and validate every knob before anything runs.
  std::string error;
  const auto resolved =
      search::resolve_search(registry, objective, o.axes, o.sets, &error);
  if (!resolved) return fail(error);
  const scenario::Scenario* sc = registry.find(resolved->objective.scenario);
  if (sc == nullptr) {
    return fail("unknown scenario \"" + resolved->objective.scenario + "\"");
  }
  search::SearchOptions search_opts;
  search_opts.budget = o.budget != 0 ? o.budget : resolved->budget;
  search_opts.patience = o.patience;
  search_opts.threads = o.search_threads;
  search_opts.journal_path = o.journal_path;
  search::SearchResult result;
  try {
    result = search::run_search(*sc, resolved->objective, resolved->axes,
                                search_opts);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  } catch (const std::runtime_error& e) {
    return fail(e.what());
  }
  if (!result.journal_repair.empty()) {
    std::fprintf(stderr, "leakctl: %s\n", result.journal_repair.c_str());
  }
  if (!o.quiet) std::fprintf(report_stream(o), "%s", result.to_text().c_str());
  json::Value doc = result.to_json();
  if (o.boost_report) {
    if (result.scenario != "balancing-attack") {
      return fail("--boost-report needs the balancing-attack scenario "
                  "(objective \"" + objective + "\" searches " +
                  result.scenario + ")");
    }
    // The rungs climb the adversary committee share around the paper's
    // operating point; stake = n_byzantine / (n_byzantine + n_honest).
    const std::vector<std::int64_t> ladder{4, 5, 6, 7, 8, 9, 10};
    std::string text;
    json::Value report;
    try {
      report = search::boost_report(*sc, result.best_params, ladder,
                                    o.boost_percent, o.search_threads, &text);
    } catch (const std::invalid_argument& e) {
      return fail(e.what());
    }
    if (!o.quiet) std::fprintf(report_stream(o), "\n%s", text.c_str());
    doc.set("boost_report", std::move(report));
  }
  return emit_artifacts(doc, result.history_to_csv(), o);
}

// --- serve command family (src/serve) --------------------------------

void print_status(const serve::JobStatus& st) {
  std::printf("%s  %-24s %4zu/%-4zu cells  %s\n", st.id.c_str(),
              st.scenario.c_str(), st.done_cells, st.total_cells,
              st.merged ? "merged" : "incomplete");
}

json::Value status_to_json(const serve::JobStatus& st) {
  json::Value doc = json::Value::object();
  doc.set("id", st.id);
  if (!st.error.empty()) {
    doc.set("error", st.error);
    return doc;
  }
  doc.set("scenario", st.scenario);
  doc.set("total_cells", static_cast<std::int64_t>(st.total_cells));
  doc.set("done_cells", static_cast<std::int64_t>(st.done_cells));
  doc.set("merged", st.merged);
  return doc;
}

int cmd_submit(const Options& o) {
  std::string error;
  auto in = read_inputs(o, &error);
  if (!in) return fail(error);
  serve::JobSpec job;
  job.scenario = o.scenario->spec().name();
  job.base = std::move(in->base);
  job.axes = std::move(in->axes);
  job.config.vary_seed = o.vary_seed;
  if (o.workers != 0) job.config.workers = o.workers;
  if (o.max_retries != 0) job.config.max_retries = o.max_retries;
  serve::JobService service(scenario::builtin_registry(), o.jobs_dir);
  const auto id = service.submit(job, &error);
  if (!id) return fail(error);
  std::printf("submitted %s (%zu cells)\n  manifest: %s/manifest.json\n",
              id->c_str(), job.cell_count(),
              service.job_dir(*id).c_str());
  return 0;
}

int cmd_status(const Options& o) {
  serve::JobService service(scenario::builtin_registry(), o.jobs_dir);
  std::string error;
  if (!o.args.empty()) {
    auto st = service.status(o.args.front(), &error);
    if (!st) return fail(error);
    if (o.as_json) {
      std::printf("%s\n", status_to_json(*st).dump(2).c_str());
    } else {
      print_status(*st);
    }
    return 0;
  }
  // A job whose manifest fails to load is reported on stderr (and in
  // the JSON array) and makes the listing exit nonzero.
  const auto jobs = service.list();
  int rc = 0;
  for (const auto& st : jobs) {
    if (st.error.empty()) continue;
    std::fprintf(stderr, "leakctl: %s: %s\n", st.id.c_str(),
                 st.error.c_str());
    rc = 2;
  }
  if (o.as_json) {
    json::Value doc = json::Value::array();
    for (const auto& st : jobs) doc.push_back(status_to_json(st));
    std::printf("%s\n", doc.dump(2).c_str());
    return rc;
  }
  if (jobs.empty()) {
    std::printf("no jobs in %s\n", o.jobs_dir.c_str());
    return 0;
  }
  for (const auto& st : jobs) {
    if (st.error.empty()) print_status(st);
  }
  return rc;
}

int run_one_job(serve::JobService& service, const std::string& id,
                const Options& o, std::string* error) {
  serve::RunOptions run_opts;
  run_opts.workers = o.workers;
  run_opts.max_retries = o.max_retries;
  run_opts.max_cells = o.max_cells;
  const auto stats = service.run(id, run_opts, error);
  if (!stats) return 2;
  if (!o.quiet) {
    std::printf(
        "%s: %zu cells, %zu already done, %zu executed"
        " (%zu worker respawns)%s\n",
        id.c_str(), stats->total_cells, stats->already_done,
        stats->executed, stats->respawns,
        stats->completed ? ", merged" : "");
  }
  if (!error->empty()) {
    // Non-fatal completion note (e.g. deterministic cell failures).
    std::fprintf(stderr, "leakctl: %s: %s\n", id.c_str(), error->c_str());
    error->clear();
  }
  return 0;
}

int cmd_resume(const Options& o) {
  serve::JobService service(scenario::builtin_registry(), o.jobs_dir);
  std::string error;
  if (run_one_job(service, o.args.front(), o, &error) != 0) return fail(error);
  return 0;
}

int cmd_results(const Options& o) {
  serve::JobService service(scenario::builtin_registry(), o.jobs_dir);
  std::string error;
  const auto merged = service.merged(o.args.front(), o.canonical, &error);
  if (!merged) return fail(error);
  if (o.json_path.empty() && o.csv_path.empty()) {
    std::printf("%s\n", merged->dump(2).c_str());
    return 0;
  }
  // `results --csv` prints the table `sweep --csv` prints.
  std::string csv;
  if (!o.csv_path.empty()) {
    try {
      csv = scenario::sweep_table(*merged).to_csv();
    } catch (const std::invalid_argument& e) {
      return fail(e.what());
    }
  }
  return emit_artifacts(*merged, csv, o);
}

int cmd_serve(const Options& o) {
  serve::JobService service(scenario::builtin_registry(), o.jobs_dir);
  std::set<std::string> reported;  // broken jobs, reported once each
  bool run_failed = false;
  std::string error;
  for (;;) {
    for (const auto& st : service.list()) {
      if (!st.error.empty()) {
        if (reported.insert(st.id).second) {
          std::fprintf(stderr, "leakctl: %s: %s\n", st.id.c_str(),
                       st.error.c_str());
        }
        continue;
      }
      if (st.merged) continue;
      if (run_one_job(service, st.id, o, &error) != 0) {
        std::fprintf(stderr, "leakctl: %s: %s\n", st.id.c_str(),
                     error.c_str());
        error.clear();
        run_failed = true;
      }
    }
    if (o.once) return reported.empty() && !run_failed ? 0 : 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(o.poll_ms));
  }
}

// --- command rows and the one parser -----------------------------------

struct Verb {
  unsigned bit;
  const char* name;
  const char* synopsis;  // usage text after the name
  const char* help;      // '\n' starts a continuation line
  bool scenario;         // the first positional names a scenario
  std::size_t min_args;  // positionals after the scenario
  std::size_t max_args;
  const char* arg_error;  // count off; nullptr = "unexpected argument"
  int (*run)(const Options&);
};

constexpr Verb kVerbs[] = {
    {kList, "list", "[--json|--names]", "enumerate scenarios", false, 0, 0,
     nullptr, cmd_list},
    {kDescribe, "describe", "<scenario> [--json]",
     "show one scenario's parameters", true, 0, 0, nullptr, cmd_describe},
    {kRun, "run", "<scenario> [options]", "run one scenario", true, 0, 0,
     nullptr, cmd_run},
    {kSweep, "sweep", "<scenario> --sweep k=v1,v2,... [options]",
     "grid/list parameter sweep", true, 0, 0, nullptr, cmd_sweep},
    {kSearch, "search", "<objective> [--axis k=lo:hi:step]... [options]",
     "optimize adversary knobs; the\n"
     "objective is a shipped config\n"
     "name or scenario:metric[:max|min]",
     false, 0, 1, nullptr, cmd_search},
    {kSubmit, "submit", "<scenario> [options]",
     "submit a sweep as a durable job", true, 0, 0, nullptr, cmd_submit},
    {kStatus, "status", "[job] [--json]", "job progress (all jobs if none)",
     false, 0, 1, "status takes one job id", cmd_status},
    {kResume, "resume", "<job> [--max-cells N]",
     "run/resume a job's missing cells", false, 1, 1,
     "resume needs one job id", cmd_resume},
    {kResults, "results", "<job> [--canonical]",
     "merged result of a complete job", false, 1, 1,
     "results needs one job id", cmd_results},
    {kServe, "serve", "[--once] [--poll-ms N]", "run every incomplete job",
     false, 0, 0, nullptr, cmd_serve},
};

/// `left` padded to `width`, then `help` with its continuation lines
/// indented to the same column; a `left` too wide for the column puts
/// the help on the next line.
void print_entry(const std::string& left, const char* help,
                 std::size_t width) {
  std::string text = "  " + left;
  if (text.size() + 2 > width) {
    text += '\n';
    text.append(width, ' ');
  } else {
    text.resize(width, ' ');
  }
  for (const char* c = help; *c != '\0'; ++c) {
    text += *c;
    if (*c == '\n') text.append(width, ' ');
  }
  std::fprintf(stderr, "%s\n", text.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <command> [args]\n", argv0);
  for (const Verb& v : kVerbs) {
    print_entry(std::string(v.name) + " " + v.synopsis, v.help, 37);
  }
  std::fprintf(stderr,
               "options, by the commands that read them (any other "
               "command refuses them):\n");
  unsigned heading = 0;
  for (const Flag& f : kFlags) {
    if (f.verbs != heading) {
      heading = f.verbs;
      std::string names;
      for (const Verb& v : kVerbs) {
        if ((heading & v.bit) == 0) continue;
        if (!names.empty()) names += ", ";
        names += v.name;
      }
      std::fprintf(stderr, " %s:\n", names.c_str());
    }
    print_entry(f.value ? std::string(f.name) + " " + f.value : f.name,
                f.help, 22);
  }
  return 2;
}

/// Read one command's argument tail: each option must be a kFlags row
/// that names `verb`, and every other word is a positional.  A verb
/// that takes a scenario resolves its first positional in the registry;
/// the positionals after it must then number what the verb allows.
bool parse_command(const Verb& verb, const char* argv0,
                   const std::vector<std::string>& words, Options* out,
                   std::string* error) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string& word = words[i];
    if (word.empty() || word[0] != '-') {
      out->args.push_back(word);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if ((f.verbs & verb.bit) != 0 && word == f.name) flag = &f;
    }
    if (flag == nullptr) {
      *error = "unknown option \"" + word + "\"";
      return false;
    }
    std::string value;
    if (flag->value != nullptr) {
      if (++i == words.size()) {
        *error = word + " needs a value";
        return false;
      }
      value = words[i];
    }
    if (!flag->apply(*out, flag->name, value, error)) return false;
  }
  if (out->json_path == "-" && out->csv_path == "-") {
    *error = "--json - and --csv - both write to stdout; give one a file";
    return false;
  }
  if (verb.scenario) {
    if (out->args.empty()) {
      *error = std::string(verb.name) + " needs a scenario name";
      return false;
    }
    const std::string name = out->args.front();
    out->args.erase(out->args.begin());
    out->scenario = scenario::builtin_registry().find(name);
    if (out->scenario == nullptr) {
      *error = "unknown scenario \"" + name + "\" (try: " + argv0 + " list)";
      return false;
    }
  }
  const std::size_t n = out->args.size();
  if (n < verb.min_args || n > verb.max_args) {
    *error = verb.arg_error != nullptr
                 ? std::string(verb.arg_error)
                 : "unexpected argument \"" + out->args[verb.max_args] + "\"";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Verb* verb = nullptr;
  for (const Verb& v : kVerbs) {
    if (argc >= 2 && std::strcmp(argv[1], v.name) == 0) verb = &v;
  }
  if (verb == nullptr) return usage(argv[0]);
  Options opts;
  std::string error;
  const std::vector<std::string> words(argv + 2, argv + argc);
  if (!parse_command(*verb, argv[0], words, &opts, &error)) {
    return fail(error);
  }
  return verb->run(opts);
}
