// leakctl — command-line front end over the scenario registry: every
// attack/leak experiment in the library is a named, parameterized,
// sweepable artifact, runnable without writing code.
//
//   leakctl list [--json|--names]
//   leakctl describe <scenario> [--json]
//   leakctl run <scenario> [--params FILE] [--faults FILE] [--set k=v]...
//               [--paths N] [--seed N] [--threads N] [--block N]
//               [--json PATH] [--csv PATH] [--quiet]
//   leakctl sweep <scenario> --sweep k=v1,v2,... [--sweep k=lo:hi:step]
//               [--faults FILE] [--set k=v]... [--vary-seed]
//               [--parallel-cells] [--json PATH] [--csv PATH] [--quiet]
//
// The serve command family runs sweeps as durable, resumable jobs
// (src/serve): cells are sharded across worker subprocesses and
// checkpointed one fsync'd record at a time into an append-only
// store, so a job survives kill -9 at any instant and resumes by
// re-running only the missing cells (docs/OPERATIONS.md):
//
//   leakctl submit <scenario> [--sweep ...] [--set ...] [--vary-seed]
//               [--workers N] [--max-retries N] [--jobs-dir DIR]
//   leakctl status [job] [--json] [--jobs-dir DIR]
//   leakctl resume <job> [--workers N] [--max-cells N] [--jobs-dir DIR]
//   leakctl results <job> [--json PATH] [--csv PATH] [--canonical]
//               [--jobs-dir DIR]
//   leakctl serve [--once] [--poll-ms N] [--jobs-dir DIR]
//
// PATH "-" writes to stdout.  `leakctl list --json` feeds
// tools/scenario_catalog.py, which generates the README "Scenario
// catalog" section (checked fresh in CI).  `--params FILE` replays an
// archived experiment: FILE is either a bare params JSON object or a
// full ScenarioResult report (its "params" member is used), as
// written by `--json`; later --set/--paths/... override on top.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
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

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> [args]\n"
      "  list [--json|--names]              enumerate scenarios\n"
      "  describe <scenario> [--json]       show one scenario's parameters\n"
      "  run <scenario> [options]           run one scenario\n"
      "  sweep <scenario> --sweep k=v1,v2,... [--sweep k=lo:hi:step] ...\n"
      "                                     grid/list parameter sweep\n"
      "  search <objective> [--axis k=lo:hi:step]... [options]\n"
      "                                     optimize adversary knobs; the\n"
      "                                     objective is a shipped config\n"
      "                                     name or scenario:metric[:max|"
      "min]\n"
      "  submit <scenario> [options]        submit a sweep as a durable job\n"
      "  status [job] [--json]              job progress (all jobs if none)\n"
      "  resume <job> [--max-cells N]       run/resume a job's missing "
      "cells\n"
      "  results <job> [--canonical]        merged result of a complete "
      "job\n"
      "  serve [--once] [--poll-ms N]       run every incomplete job\n"
      "options (run and sweep):\n"
      "  --set k=v        set a parameter (repeatable)\n"
      "  --paths N        shorthand for --set paths=N\n"
      "  --seed N         shorthand for --set seed=N\n"
      "  --threads N      shorthand for --set threads=N\n"
      "  --block N        shorthand for --set block=N\n"
      "  --faults FILE    load a fault-schedule JSON file (an ordered\n"
      "                   timeline of partition/latency/loss/outage\n"
      "                   events) and pass it inline as the scenario's\n"
      "                   `faults` parameter; also accepted by search\n"
      "                   and submit\n"
      "  --json PATH      write the JSON report to PATH (\"-\" = stdout)\n"
      "  --csv PATH       write the CSV (trial rows / sweep cells) to PATH\n"
      "  --quiet          suppress the human-readable report\n"
      "run-only options:\n"
      "  --params FILE    replay archived parameters (a params JSON\n"
      "                   object or a full --json report; --set wins)\n"
      "sweep-only options:\n"
      "  --vary-seed      per-cell seeds from (seed, cell index)\n"
      "  --parallel-cells fan cells across the thread pool\n"
      "search-only options:\n"
      "  --axis k=lo:hi:step  add a search axis; overrides a shipped\n"
      "                   config's axis over the same parameter\n"
      "  --budget N       distinct candidate evaluations, journal\n"
      "                   replays included (default per config: 48)\n"
      "  --patience N     failed unit-step passes before convergence "
      "(1)\n"
      "  --search-threads N  parallel candidate evaluations (0 = off)\n"
      "  --journal PATH   durable evaluation journal; a killed search\n"
      "                   resumes from it byte-identically\n"
      "  --out PATH       alias for --json\n"
      "  --boost-report   rerun the best strategy across an n_byzantine\n"
      "                   ladder with proposer boost off vs on\n"
      "  --boost-percent N  boost strength for the report (default 40)\n"
      "job options (submit/status/resume/results/serve):\n"
      "  --jobs-dir DIR   job store directory (default \"jobs\")\n"
      "  --workers N      worker subprocesses (submit default; resume\n"
      "                   override)\n"
      "  --max-retries N  per-cell retry budget on worker death (submit)\n"
      "  --max-cells N    stop a resume after N newly-executed cells\n"
      "  --canonical      zero wall-clock metadata in results output\n"
      "  --once           serve: one pass over incomplete jobs, then "
      "exit\n"
      "  --poll-ms N      serve: sleep between passes (default 1000)\n",
      argv0);
  return 2;
}

int fail(const std::string& msg) {
  std::fprintf(stderr, "leakctl: %s\n", msg.c_str());
  return 2;
}

/// Load a --faults schedule file and rewrite it as a
/// `faults=<compact JSON>` --set entry: the schedule travels inline in
/// the params, so sweep cells, serve jobs and search journals stay
/// self-contained and resume without the original file.
bool push_faults_set(const std::string& path,
                     std::vector<std::string>* sets, std::string* error) {
  try {
    sets->push_back("faults=" +
                    faults::FaultSchedule::load_file(path).dump());
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
  return true;
}

int cmd_list(const scenario::ScenarioRegistry& registry,
             const std::vector<std::string>& args) {
  const std::string mode = args.empty() ? "" : args.front();
  if (mode == "--json") {
    json::Value doc = json::Value::array();
    for (const auto* s : registry.all()) doc.push_back(s->spec().to_json());
    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
  }
  if (mode == "--names") {
    for (const auto* s : registry.all()) {
      std::printf("%s\n", s->spec().name().c_str());
    }
    return 0;
  }
  if (!mode.empty()) return fail("unknown list option \"" + mode + "\"");
  Table t({"scenario", "params", "description"});
  for (const auto* s : registry.all()) {
    t.add_row({s->spec().name(), std::to_string(s->spec().params().size()),
               s->spec().description()});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_describe(const scenario::Scenario& sc,
                 const std::vector<std::string>& args) {
  if (!args.empty() && args.front() == "--json") {
    std::printf("%s\n", sc.spec().to_json().dump(2).c_str());
    return 0;
  }
  if (!args.empty()) {
    return fail("unknown describe option \"" + args.front() + "\"");
  }
  std::printf("%s — %s\n\n", sc.spec().name().c_str(),
              sc.spec().description().c_str());
  Table t({"parameter", "type", "default", "constraints", "description"});
  for (const auto& p : sc.spec().params()) {
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

/// Options every option-taking command shares.
struct CommonOptions {
  std::vector<std::string> sets;  // --set, the shorthands, --faults
  std::string json_path;          // empty = no JSON output
  std::string csv_path;           // empty = no CSV output
  bool quiet = false;
};

/// Cursor over an option tail.  The readers consume the flag's value
/// and leave a message in *error when it is missing or malformed.
struct ArgReader {
  const std::vector<std::string>& args;
  std::string* error;
  std::size_t i = 0;

  const std::string* value(const char* flag) {
    if (i + 1 >= args.size()) {
      *error = std::string(flag) + " needs a value";
      return nullptr;
    }
    return &args[++i];
  }
  bool value(const char* flag, std::string* slot) {
    const auto* v = value(flag);
    if (v != nullptr) *slot = *v;
    return v != nullptr;
  }
  bool push(const char* flag, std::vector<std::string>* list) {
    const auto* v = value(flag);
    if (v != nullptr) list->push_back(*v);
    return v != nullptr;
  }
  template <typename T>
  bool count(const char* flag, T* slot) {
    const auto* v = value(flag);
    if (v == nullptr) return false;
    const auto parsed = parse::u64(*v);
    if (!parsed) {
      *error = std::string(flag) + " needs a non-negative integer";
      return false;
    }
    *slot = static_cast<T>(*parsed);
    return true;
  }

  /// Parse args[i] as one of the shared options (--set, --paths /
  /// --seed / --threads / --block, --faults, --json PATH, --csv,
  /// --quiet); anything else is an unknown option.
  bool common(CommonOptions* out) {
    const std::string& a = args[i];
    if (a == "--set") return push("--set", &out->sets);
    if (a == "--paths" || a == "--seed" || a == "--threads" ||
        a == "--block") {
      const auto* v = value(a.c_str());
      if (v != nullptr) out->sets.push_back(a.substr(2) + "=" + *v);
      return v != nullptr;
    }
    if (a == "--faults") {
      const auto* v = value("--faults");
      return v != nullptr && push_faults_set(*v, &out->sets, error);
    }
    if (a == "--json") return value("--json", &out->json_path);
    if (a == "--csv") return value("--csv", &out->csv_path);
    if (a == "--quiet") {
      out->quiet = true;
      return true;
    }
    *error = "unknown option \"" + a + "\"";
    return false;
  }
};

/// Options of run and sweep.
struct CliOptions : CommonOptions {
  std::vector<std::string> sweeps;
  std::string params_path;  // empty = no archived-params replay
  bool vary_seed = false;
  bool parallel_cells = false;
};

/// Parse the option tail; false with *error set on a bad option.
bool parse_options(const std::vector<std::string>& args, bool allow_sweep,
                   CliOptions* out, std::string* error) {
  for (ArgReader r{args, error}; r.i < args.size(); ++r.i) {
    const std::string& a = args[r.i];
    if (a == "--params" && !allow_sweep) {
      if (!r.value("--params", &out->params_path)) return false;
    } else if (a == "--sweep" && allow_sweep) {
      if (!r.push("--sweep", &out->sweeps)) return false;
    } else if (a == "--vary-seed" && allow_sweep) {
      out->vary_seed = true;
    } else if (a == "--parallel-cells" && allow_sweep) {
      out->parallel_cells = true;
    } else if (!r.common(out)) {
      return false;
    }
  }
  return true;
}

int emit_artifacts(const json::Value& doc, const std::string& csv,
                   const CommonOptions& opts) {
  if (!opts.json_path.empty()) {
    if (!reporting::write_json(doc, opts.json_path)) {
      return fail("cannot write " + opts.json_path);
    }
    if (opts.json_path != "-") {
      std::printf("(wrote %s)\n", opts.json_path.c_str());
    }
  }
  if (!opts.csv_path.empty()) {
    if (!reporting::write_text(csv, opts.csv_path)) {
      return fail("cannot write " + opts.csv_path);
    }
    if (opts.csv_path != "-") {
      std::printf("(wrote %s)\n", opts.csv_path.c_str());
    }
  }
  return 0;
}

/// Load the --params replay file into a ParamSet validated against the
/// scenario's spec.  Accepts either a bare params JSON object or a
/// full ScenarioResult report, whose "params" member is then used.
std::optional<scenario::ParamSet> load_params_file(
    const scenario::Scenario& sc, const std::string& path,
    std::string* error) {
  const auto doc = json::Value::load_file(path, error);
  if (!doc) return std::nullopt;
  // Archives produced by sweeps carry an "axes" member.  Validate it
  // against this scenario's spec even though a plain `run` replay only
  // uses the params: a grid axis naming a parameter the scenario does
  // not declare means the file belongs to a different experiment, and
  // silently replaying its base params would misattribute results.
  if (doc->is_object() && doc->find("axes") != nullptr) {
    std::string axes_error;
    if (!scenario::axes_from_json(sc.spec(), *doc->find("axes"),
                                  &axes_error)) {
      *error = path + ": " + axes_error;
      return std::nullopt;
    }
  }
  const json::Value* params = &*doc;
  if (doc->is_object() && doc->find("params") != nullptr &&
      doc->find("params")->is_object()) {
    // A full report: replay the scenario it recorded (guard against
    // replaying another scenario's archive under the wrong name).
    const json::Value* name = doc->find("scenario");
    if (name != nullptr && name->is_string() &&
        name->as_string() != sc.spec().name()) {
      *error = path + ": archived scenario \"" + name->as_string() +
               "\" does not match \"" + sc.spec().name() + "\"";
      return std::nullopt;
    }
    params = doc->find("params");
  }
  std::string parse_error;
  auto set = sc.spec().params_from_json(*params, &parse_error);
  if (!set) {
    *error = path + ": " + parse_error;
    return std::nullopt;
  }
  return set;
}

int cmd_run(const scenario::Scenario& sc,
            const std::vector<std::string>& args) {
  CliOptions opts;
  std::string error;
  if (!parse_options(args, /*allow_sweep=*/false, &opts, &error)) {
    return fail(error);
  }
  scenario::ParamSet params = sc.spec().defaults();
  if (!opts.params_path.empty()) {
    auto replayed = load_params_file(sc, opts.params_path, &error);
    if (!replayed) return fail(error);
    params = std::move(*replayed);
  }
  for (const auto& kv : opts.sets) {
    if (auto err = sc.spec().apply_kv(kv, &params)) return fail(*err);
  }
  scenario::ScenarioResult result;
  try {
    result = sc.run(params);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  if (!opts.quiet) std::printf("%s", result.to_text().c_str());
  return emit_artifacts(result.to_json(), result.trials_to_csv(), opts);
}

int cmd_sweep(const scenario::Scenario& sc,
              const std::vector<std::string>& args) {
  CliOptions opts;
  std::string error;
  if (!parse_options(args, /*allow_sweep=*/true, &opts, &error)) {
    return fail(error);
  }
  if (opts.sweeps.empty()) {
    return fail("sweep needs at least one --sweep k=v1,v2,...");
  }
  scenario::ParamSet base = sc.spec().defaults();
  for (const auto& kv : opts.sets) {
    if (auto err = sc.spec().apply_kv(kv, &base)) return fail(*err);
  }
  std::vector<scenario::SweepAxis> axes;
  for (const auto& text : opts.sweeps) {
    scenario::SweepAxis axis;
    if (auto err = scenario::parse_sweep_axis(sc.spec(), text, &axis)) {
      return fail(*err);
    }
    axes.push_back(std::move(axis));
  }
  scenario::SweepConfig config;
  config.vary_seed = opts.vary_seed;
  config.parallel_cells = opts.parallel_cells;
  // With --parallel-cells the pool size comes from the threads
  // parameter (cells themselves are pinned to one inner thread).
  config.threads = static_cast<unsigned>(base.get_int("threads"));
  scenario::SweepResult result;
  try {
    result = scenario::run_sweep(sc, base, std::move(axes), config);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }
  if (!opts.quiet) std::printf("%s", result.to_text().c_str());
  return emit_artifacts(result.to_json(), result.to_csv(), opts);
}

// --- search command (src/search) -------------------------------------

struct SearchCliOptions : CommonOptions {
  std::string objective;
  std::vector<std::string> axes;
  std::string journal_path;
  std::size_t budget = 0;  // 0 = the resolved config's default
  std::size_t patience = 1;
  unsigned threads = 0;
  unsigned boost_percent = 40;
  bool boost_report = false;
};

bool parse_search_options(const std::vector<std::string>& args,
                          SearchCliOptions* out, std::string* error) {
  for (ArgReader r{args, error}; r.i < args.size(); ++r.i) {
    const std::string& a = args[r.i];
    if (a == "--axis") {
      if (!r.push("--axis", &out->axes)) return false;
    } else if (a == "--budget") {
      if (!r.count("--budget", &out->budget)) return false;
    } else if (a == "--patience") {
      if (!r.count("--patience", &out->patience)) return false;
    } else if (a == "--search-threads") {
      if (!r.count("--search-threads", &out->threads)) return false;
    } else if (a == "--boost-percent") {
      if (!r.count("--boost-percent", &out->boost_percent)) return false;
    } else if (a == "--boost-report") {
      out->boost_report = true;
    } else if (a == "--journal") {
      if (!r.value("--journal", &out->journal_path)) return false;
    } else if (a == "--out") {
      if (!r.value("--out", &out->json_path)) return false;
    } else if (!a.empty() && a[0] == '-') {
      if (!r.common(out)) return false;
    } else if (out->objective.empty()) {
      out->objective = a;
    } else {
      *error = "unexpected argument \"" + a + "\"";
      return false;
    }
  }
  return true;
}

int cmd_search(const scenario::ScenarioRegistry& registry,
               const std::vector<std::string>& args) {
  SearchCliOptions opts;
  std::string error;
  if (!parse_search_options(args, &opts, &error)) return fail(error);
  if (opts.objective.empty()) {
    std::string msg = "search needs an objective (shipped configs:";
    for (const auto& c : search::builtin_search_configs()) {
      msg += " " + c.name;
    }
    msg += "; or scenario:metric[:max|min])";
    return fail(msg);
  }
  // Resolve and validate every knob before anything runs.
  const auto resolved = search::resolve_search(registry, opts.objective,
                                               opts.axes, opts.sets, &error);
  if (!resolved) return fail(error);
  const scenario::Scenario* sc = registry.find(resolved->objective.scenario);
  if (sc == nullptr) {
    return fail("unknown scenario \"" + resolved->objective.scenario + "\"");
  }
  search::SearchOptions search_opts;
  search_opts.budget = opts.budget != 0 ? opts.budget : resolved->budget;
  search_opts.patience = opts.patience;
  search_opts.threads = opts.threads;
  search_opts.journal_path = opts.journal_path;
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
  if (!opts.quiet) std::printf("%s", result.to_text().c_str());
  json::Value doc = result.to_json();
  if (opts.boost_report) {
    if (result.scenario != "balancing-attack") {
      return fail("--boost-report needs the balancing-attack scenario "
                  "(objective \"" + opts.objective + "\" searches " +
                  result.scenario + ")");
    }
    // The rungs climb the adversary committee share around the paper's
    // operating point; stake = n_byzantine / (n_byzantine + n_honest).
    const std::vector<std::int64_t> ladder{4, 5, 6, 7, 8, 9, 10};
    std::string text;
    json::Value report;
    try {
      report = search::boost_report(*sc, result.best_params, ladder,
                                    opts.boost_percent, &text);
    } catch (const std::invalid_argument& e) {
      return fail(e.what());
    }
    if (!opts.quiet) std::printf("\n%s", text.c_str());
    doc.set("boost_report", std::move(report));
  }
  return emit_artifacts(doc, result.history_to_csv(), opts);
}

// --- serve command family (src/serve) --------------------------------

/// Options shared by submit/status/resume/results/serve.
struct JobCliOptions : CommonOptions {
  std::vector<std::string> sweeps;
  std::string params_path;
  std::string jobs_dir = "jobs";
  bool vary_seed = false;
  bool canonical = false;
  bool as_json = false;  // --json with no PATH (status)
  bool once = false;
  unsigned workers = 0;
  unsigned max_retries = 0;
  std::size_t max_cells = 0;
  unsigned poll_ms = 1000;
  std::vector<std::string> positional;
};

bool parse_job_options(const std::vector<std::string>& args,
                       bool json_is_flag, JobCliOptions* out,
                       std::string* error) {
  for (ArgReader r{args, error}; r.i < args.size(); ++r.i) {
    const std::string& a = args[r.i];
    if (a == "--sweep") {
      if (!r.push("--sweep", &out->sweeps)) return false;
    } else if (a == "--params") {
      if (!r.value("--params", &out->params_path)) return false;
    } else if (a == "--jobs-dir") {
      if (!r.value("--jobs-dir", &out->jobs_dir)) return false;
    } else if (a == "--json" && json_is_flag) {
      out->as_json = true;
    } else if (a == "--vary-seed") {
      out->vary_seed = true;
    } else if (a == "--canonical") {
      out->canonical = true;
    } else if (a == "--once") {
      out->once = true;
    } else if (a == "--workers") {
      if (!r.count("--workers", &out->workers)) return false;
    } else if (a == "--max-retries") {
      if (!r.count("--max-retries", &out->max_retries)) return false;
    } else if (a == "--max-cells") {
      if (!r.count("--max-cells", &out->max_cells)) return false;
    } else if (a == "--poll-ms") {
      if (!r.count("--poll-ms", &out->poll_ms)) return false;
    } else if (!a.empty() && a[0] == '-') {
      if (!r.common(out)) return false;
    } else {
      out->positional.push_back(a);
    }
  }
  return true;
}

void print_status(const serve::JobStatus& st) {
  std::printf("%s  %-24s %4zu/%-4zu cells  %s\n", st.id.c_str(),
              st.scenario.c_str(), st.done_cells, st.total_cells,
              st.merged ? "merged" : "incomplete");
}

json::Value status_to_json(const serve::JobStatus& st) {
  json::Value doc = json::Value::object();
  doc.set("id", st.id);
  doc.set("scenario", st.scenario);
  doc.set("total_cells", static_cast<std::int64_t>(st.total_cells));
  doc.set("done_cells", static_cast<std::int64_t>(st.done_cells));
  doc.set("merged", st.merged);
  return doc;
}

int cmd_submit(const scenario::ScenarioRegistry& registry,
               const scenario::Scenario& sc,
               const std::vector<std::string>& args) {
  JobCliOptions opts;
  std::string error;
  if (!parse_job_options(args, /*json_is_flag=*/false, &opts, &error)) {
    return fail(error);
  }
  if (!opts.positional.empty()) {
    return fail("unexpected argument \"" + opts.positional.front() + "\"");
  }
  serve::JobSpec job;
  job.scenario = sc.spec().name();
  job.base = sc.spec().defaults();
  if (!opts.params_path.empty()) {
    auto replayed = load_params_file(sc, opts.params_path, &error);
    if (!replayed) return fail(error);
    job.base = std::move(*replayed);
  }
  for (const auto& kv : opts.sets) {
    if (auto err = sc.spec().apply_kv(kv, &job.base)) return fail(*err);
  }
  for (const auto& text : opts.sweeps) {
    scenario::SweepAxis axis;
    if (auto err = scenario::parse_sweep_axis(sc.spec(), text, &axis)) {
      return fail(*err);
    }
    job.axes.push_back(std::move(axis));
  }
  job.config.vary_seed = opts.vary_seed;
  if (opts.workers != 0) job.config.workers = opts.workers;
  if (opts.max_retries != 0) job.config.max_retries = opts.max_retries;
  serve::JobService service(registry, opts.jobs_dir);
  const auto id = service.submit(job, &error);
  if (!id) return fail(error);
  std::printf("submitted %s (%zu cells)\n  manifest: %s/manifest.json\n",
              id->c_str(), job.cell_count(),
              service.job_dir(*id).c_str());
  return 0;
}

int cmd_status(const scenario::ScenarioRegistry& registry,
               const std::vector<std::string>& args) {
  JobCliOptions opts;
  std::string error;
  if (!parse_job_options(args, /*json_is_flag=*/true, &opts, &error)) {
    return fail(error);
  }
  serve::JobService service(registry, opts.jobs_dir);
  if (opts.positional.size() > 1) return fail("status takes one job id");
  if (opts.positional.size() == 1) {
    auto st = service.status(opts.positional.front(), &error);
    if (!st) return fail(error);
    if (opts.as_json) {
      std::printf("%s\n", status_to_json(*st).dump(2).c_str());
    } else {
      print_status(*st);
    }
    return 0;
  }
  const auto jobs = service.list(&error);
  if (opts.as_json) {
    json::Value doc = json::Value::array();
    for (const auto& st : jobs) doc.push_back(status_to_json(st));
    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
  }
  if (jobs.empty()) {
    std::printf("no jobs in %s\n", opts.jobs_dir.c_str());
    return 0;
  }
  for (const auto& st : jobs) print_status(st);
  return 0;
}

int run_one_job(serve::JobService& service, const std::string& id,
                const JobCliOptions& opts, std::string* error) {
  serve::RunOptions run_opts;
  run_opts.workers = opts.workers;
  run_opts.max_retries = opts.max_retries;
  run_opts.max_cells = opts.max_cells;
  const auto stats = service.run(id, run_opts, error);
  if (!stats) return 2;
  if (!opts.quiet) {
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

int cmd_resume(const scenario::ScenarioRegistry& registry,
               const std::vector<std::string>& args) {
  JobCliOptions opts;
  std::string error;
  if (!parse_job_options(args, /*json_is_flag=*/false, &opts, &error)) {
    return fail(error);
  }
  if (opts.positional.size() != 1) return fail("resume needs one job id");
  serve::JobService service(registry, opts.jobs_dir);
  const int rc =
      run_one_job(service, opts.positional.front(), opts, &error);
  if (rc != 0) return fail(error);
  return 0;
}

int cmd_results(const scenario::ScenarioRegistry& registry,
                const std::vector<std::string>& args) {
  JobCliOptions opts;
  std::string error;
  if (!parse_job_options(args, /*json_is_flag=*/false, &opts, &error)) {
    return fail(error);
  }
  if (opts.positional.size() != 1) return fail("results needs one job id");
  serve::JobService service(registry, opts.jobs_dir);
  const auto merged =
      service.merged(opts.positional.front(), opts.canonical, &error);
  if (!merged) return fail(error);
  if (opts.json_path.empty() && opts.csv_path.empty()) {
    std::printf("%s\n", merged->dump(2).c_str());
    return 0;
  }
  return emit_artifacts(*merged, serve::JobService::merged_to_csv(*merged),
                        opts);
}

int cmd_serve(const scenario::ScenarioRegistry& registry,
              const std::vector<std::string>& args) {
  JobCliOptions opts;
  std::string error;
  if (!parse_job_options(args, /*json_is_flag=*/false, &opts, &error)) {
    return fail(error);
  }
  if (!opts.positional.empty()) {
    return fail("unexpected argument \"" + opts.positional.front() + "\"");
  }
  serve::JobService service(registry, opts.jobs_dir);
  for (;;) {
    const auto jobs = service.list(&error);
    for (const auto& st : jobs) {
      if (st.merged) continue;
      if (run_one_job(service, st.id, opts, &error) != 0) {
        std::fprintf(stderr, "leakctl: %s: %s\n", st.id.c_str(),
                     error.c_str());
        error.clear();
      }
    }
    if (opts.once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string cmd = argv[1];
  const auto& registry = scenario::builtin_registry();

  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  if (cmd == "list") return cmd_list(registry, args);
  if (cmd == "search") return cmd_search(registry, args);
  if (cmd == "status") return cmd_status(registry, args);
  if (cmd == "resume") return cmd_resume(registry, args);
  if (cmd == "results") return cmd_results(registry, args);
  if (cmd == "serve") return cmd_serve(registry, args);
  if (cmd != "describe" && cmd != "run" && cmd != "sweep" &&
      cmd != "submit") {
    return usage(argv[0]);
  }
  if (args.empty()) return fail(cmd + " needs a scenario name");
  const std::string name = args.front();
  args.erase(args.begin());
  const scenario::Scenario* sc = registry.find(name);
  if (sc == nullptr) {
    return fail("unknown scenario \"" + name +
                "\" (try: " + std::string(argv[0]) + " list)");
  }
  if (cmd == "describe") return cmd_describe(*sc, args);
  if (cmd == "run") return cmd_run(*sc, args);
  if (cmd == "submit") return cmd_submit(registry, *sc, args);
  return cmd_sweep(*sc, args);
}
