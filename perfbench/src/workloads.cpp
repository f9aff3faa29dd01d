#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "src/bench.hpp"
#include "src/scenario/sweep.hpp"
#include "src/search/search.hpp"
#include "src/serve/service.hpp"

namespace perfbench {

namespace search = leak::search;
namespace serve = leak::serve;

namespace {

// Each workload is a fixed list of cells.  Sizes are chosen so one
// pass over a workload's cells takes three seconds or less on a
// 4-core x86 host: a 25-second run then times every cell six times or
// more, enough for the fastest quarter of its times to be steady (see
// fast_mean), while each cell keeps enough distinct trials that the
// seed-to-seed spread of the work stays small.  Run lengths assume the
// workload's thread count of nproc - 1 (3 on a 4-vCPU host).
std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  Workload slot{"slot", {}, 0};
  for (const char* byz : {"8", "12"}) {
    for (const char* boost : {"0", "40"}) {
      slot.cells.push_back(
          {std::string("balancing-b") + byz + "-boost" + boost,
           "balancing-attack",
           {"n_honest=32", std::string("n_byzantine=") + byz,
            std::string("proposer_boost=") + boost, "epochs=3",
            "paths=8"}});
    }
  }
  slot.cells.push_back(
      {"flaky-network", "flaky-network", {"epochs=6", "paths=4"}});
  slot.cells.push_back({"slot-partitioned-byz",
                        "slot-protocol",
                        {"n_byzantine=8", "p0=0.5", "gst_epoch=4",
                         "epochs=8", "paths=2"}});
  all.push_back(std::move(slot));

  Workload part{"partition", {}, 0};
  part.cells.push_back(
      {"trials-honest", "partition-trials", {"strategy=honest", "paths=16"}});
  part.cells.push_back({"trials-slashable",
                        "partition-trials",
                        {"strategy=slashable", "beta0=0.2", "paths=16"}});
  part.cells.push_back({"trials-semiactive",
                        "partition-trials",
                        {"strategy=semiactive", "beta0=0.2", "paths=16"}});
  part.cells.push_back(
      {"multi-partition-recovery", "multi-partition-recovery", {"paths=8"}});
  part.cells.push_back(
      {"cascading-partitions", "cascading-partitions", {"paths=8"}});
  // 2 branches x 50 000 x 32-byte validator records = 3.2 MB, above a
  // 2 MiB L2; the horizon is cut so the cell costs about as much as
  // the cache-resident ones.
  part.cells.push_back({"trials-large-n",
                        "partition-trials",
                        {"strategy=honest", "n_validators=50000",
                         "max_epochs=300", "paths=1"}});
  all.push_back(std::move(part));

  Workload mc{"montecarlo", {}, 2};
  mc.cells.push_back({"bouncing-mc", "bouncing-mc", {"paths=100000"}});
  mc.cells.push_back({"population-ensemble",
                      "population-ensemble",
                      {"paths=256", "epochs=2000"}});
  mc.cells.push_back({"attack-lifetime", "attack-lifetime", {"paths=50000"}});
  mc.cells.push_back({"semiactive-m2",
                      "semiactive-sweep",
                      {"branches=2", "paths=50000"}});
  mc.cells.push_back({"semiactive-m3",
                      "semiactive-sweep",
                      {"branches=3", "paths=50000"}});
  all.push_back(std::move(mc));

  all.push_back(Workload{"jobs", {}, 0});
  return all;
}

constexpr int kSamplesPerCell = 3;  // set-up and read-back samples per cell

/// Call `pass` at least once, and again while the next call, taking as
/// long as the last one, still ends within `seconds` of the start.
template <typename Pass>
void repeat_for(double seconds, Pass&& pass) {
  const double start = now_s();
  for (;;) {
    const double p0 = now_s();
    pass();
    const double end = now_s();
    if (end + (end - p0) - start > seconds) return;
  }
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

json::Value load_golden(const Options& opt) {
  if (opt.golden_path.empty()) return json::Value::object();
  std::string err;
  auto doc = json::Value::load_file(opt.golden_path, &err);
  if (!doc || !doc->is_object()) {
    throw std::runtime_error("cannot read golden digests: " + err);
  }
  return *doc;
}

scenario::ScenarioResult run_cell(const ResolvedCell& c, unsigned threads) {
  scenario::ParamSet p = c.params;
  p.set("threads", std::int64_t{threads});
  return c.scenario->run(p);
}

Metric metric(std::string name, std::string unit, double value) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.value = value;
  return m;
}

/// Traced run's tail: the per-layer probes, the layers' self times and
/// the Chrome trace file.
void finish_traced(const Options& opt, const ProbeInputs& in, Tracer* tracer,
                   Outcome* out) {
  run_probes(in, tracer, &out->check, &out->metrics);
  for (const auto& [layer, ms] : tracer->self_ms_by_layer()) {
    out->self_ms.set(layer, ms);
  }
  if (opt.trace_path.empty()) return;
  std::FILE* f = std::fopen(opt.trace_path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file");
  const std::string text =
      tracer->to_chrome(opt.workload + "-" + std::to_string(opt.seed)).dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("cannot write trace file");
  }
}

// ---- simulation workloads (slot, partition, montecarlo) --------------

Outcome run_sim_workload(const Options& opt, const Workload& w) {
  Outcome out;
  Tracer tracer(opt.trace);
  const json::Value golden_doc = load_golden(opt);
  const json::Value* golden = golden_for(opt, golden_doc);

  // Set-up: registry build and parameter resolution.  One sample is
  // taken here and more after every timed cell, so that the median
  // spans the run instead of its first millisecond.
  std::vector<double> setup;
  const auto setup_sample = [&] {
    const double t0 = thread_cpu_s();
    auto reg = std::make_unique<scenario::ScenarioRegistry>();
    scenario::register_builtin_scenarios(*reg);
    auto resolved = resolve_cells(w, *reg, opt.seed, opt.threads);
    setup.push_back(thread_cpu_s() - t0);
    return std::make_pair(std::move(reg), std::move(resolved));
  };
  auto [registry, cells] = setup_sample();

  // Warm-up pass at one thread: it fills caches and is the reference
  // every timed run must reproduce byte for byte.
  std::vector<std::string> ref(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    try {
      ref[i] = result_digest(run_cell(cells[i], 1));
      out.check.pass();
      out.digests.set(cells[i].label, ref[i]);
      check_golden(golden, cells[i].label, ref[i], &out.check);
    } catch (const std::exception& e) {
      out.check.fail(cells[i].label + ": " + e.what());
    }
  }

  // Read-back: serialize a result, parse it back, canonicalize and
  // digest it -- the path a reader of `leakctl run --json` takes.  Small
  // results are read back several times per sample, so a sample lasts
  // about five milliseconds; the count is set once per cell from the
  // median of five single read-backs, so that a cold first call does
  // not set it.
  constexpr double kReadBackSampleS = 5e-3;
  std::vector<int> readback_reps(cells.size(), 0);  // 0 = not sized yet
  const auto read_back = [&](const scenario::ScenarioResult& r,
                             std::size_t i) {
    const auto parsed = json::Value::parse(r.to_json().dump());
    return parsed && digest(canonical_result(*parsed).dump()) == ref[i];
  };

  // Timed passes at the workload's thread count (the last one traced
  // in trace mode, the one before it untraced for the overhead ratio).
  // Between cells, untimed: the reference loop, set-up and read-back
  // samples.  A pass's cell and read-back times are scaled by its
  // reference (see reference_loop_s).
  std::vector<std::vector<double>> times(cells.size());
  std::vector<std::vector<double>> readback(cells.size());
  std::vector<double> raw_last(cells.size(), 0.0);  ///< unscaled, last pass
  std::vector<scenario::ScenarioResult> last(cells.size());
  std::vector<double> pass_s;
  const auto timed_pass = [&](Tracer* t) {
    const double p0 = now_s();
    std::vector<double> pass_ref;
    std::vector<std::pair<std::vector<double>*, double>> samples;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      pass_ref.push_back(reference_loop_s());
      try {
        const Stamp t0 = stamp();
        {
          auto span = t->span("scenario", "Scenario::run " + cells[i].label);
          last[i] = run_cell(cells[i], opt.threads);
        }
        raw_last[i] = unstolen_s(t0, stamp());
        samples.emplace_back(&times[i], raw_last[i]);
        if (result_digest(last[i]) == ref[i]) {
          out.check.pass();
        } else {
          out.check.fail(cells[i].label + ": threads " +
                         std::to_string(opt.threads) +
                         " result differs from threads 1");
        }
      } catch (const std::exception& e) {
        out.check.fail(cells[i].label + ": " + e.what());
        continue;
      }
      if (readback_reps[i] == 0) {
        std::vector<double> once;
        bool same = true;
        for (int k = 0; k < 5; ++k) {
          const double t0 = thread_cpu_s();
          same = read_back(last[i], i) && same;
          once.push_back(thread_cpu_s() - t0);
        }
        if (!same) out.check.fail(cells[i].label + ": read-back differs");
        readback_reps[i] = static_cast<int>(std::clamp(
            std::ceil(kReadBackSampleS / median(once)), 1.0, 1000.0));
      }
      for (int k = 0; k < kSamplesPerCell; ++k) {
        (void)setup_sample();
        const int reps = readback_reps[i];
        const double t0 = thread_cpu_s();
        for (int rep = 0; rep < reps; ++rep) (void)read_back(last[i], i);
        samples.emplace_back(&readback[i], (thread_cpu_s() - t0) / reps);
      }
    }
    const double scale = kReferenceS / median(pass_ref);
    for (const auto& [dst, value] : samples) dst->push_back(value * scale);
    out.reference_s.insert(out.reference_s.end(), pass_ref.begin(),
                           pass_ref.end());
    pass_s.push_back(now_s() - p0);
  };
  Tracer off(false);
  if (opt.trace) {
    timed_pass(&off);
    timed_pass(&off);
    auto root = tracer.span("perfbench", w.name + " traced pass");
    timed_pass(&tracer);
  } else {
    repeat_for(opt.seconds, [&] { timed_pass(&off); });
  }

  double trials = 0.0;
  double cell_s = 0.0;
  double readback_s = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (times[i].empty()) continue;
    trials += static_cast<double>(cells[i].paths);
    cell_s += fast_mean(times[i]);
    readback_s += fast_mean(readback[i]);
    json::Value samples = json::Value::array();
    for (const double t : times[i]) samples.push_back(t);
    out.cell_s.set(cells[i].label, std::move(samples));
  }
  if (cell_s <= 0.0) throw std::runtime_error("no cell completed");
  const double cells_per_s = rate(static_cast<double>(cells.size()), cell_s);

  if (!opt.trace) {
    out.metrics.push_back(metric("setup_s", "s", median(setup)));
    out.metrics.push_back(
        metric("trials_per_s", "trials/s", rate(trials, cell_s)));
    out.metrics.push_back(metric("cells_per_s", "cells/s", cells_per_s));
    out.metrics.push_back(metric("readback_s", "s", readback_s));
    out.metrics.push_back(metric("peak_rss_mb", "MiB", peak_rss_mb()));
    return out;
  }

  ProbeInputs in;
  in.workload = &w;
  in.registry = registry.get();
  in.cells = cells;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    in.records.push_back(last[i].to_json());
    in.cell_ms.push_back(1e3 * raw_last[i]);
  }
  in.overhead = pass_s.back() / pass_s[pass_s.size() - 2];
  in.threads = opt.threads;
  in.seed = opt.seed;
  in.work_dir = opt.work_dir;
  finish_traced(opt, in, &tracer, &out);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::int64_t cell_seed(std::uint64_t seed, std::size_t index) {
  return static_cast<std::int64_t>(
      splitmix64(seed * 0x100000001b3ULL + index) & 0x7fffffffULL);
}

void Checker::fail(const std::string& what, std::size_t n) {
  attempted_ += n;
  failed_ += n;
  messages_.push_back(what);
}

const json::Value* golden_for(const Options& opt, const json::Value& golden) {
  if (opt.golden_path.empty() || opt.seed != kDefaultSeed) return nullptr;
  const json::Value* w = golden.find(opt.workload);
  static const json::Value kEmpty = json::Value::object();
  return w != nullptr ? w : &kEmpty;
}

void check_golden(const json::Value* golden, const std::string& label,
                  const std::string& got, Checker* check) {
  if (golden == nullptr) return;
  const json::Value* want = golden->find(label);
  if (want == nullptr || !want->is_string()) {
    check->fail(label + ": no golden digest");
  } else if (want->as_string() != got) {
    check->fail(label + ": digest " + got + " != golden " +
                want->as_string());
  }
}

std::string result_digest(const scenario::ScenarioResult& r) {
  return digest(canonical_result(r.to_json()).dump());
}

std::vector<ResolvedCell> resolve_cells(
    const Workload& w, const scenario::ScenarioRegistry& registry,
    std::uint64_t seed, unsigned threads) {
  std::vector<ResolvedCell> out;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    ResolvedCell rc;
    rc.label = cell.label;
    rc.scenario = registry.find(cell.scenario);
    if (rc.scenario == nullptr) {
      throw std::runtime_error("unknown scenario " + cell.scenario);
    }
    const scenario::ScenarioSpec& spec = rc.scenario->spec();
    rc.params = spec.defaults();
    for (const std::string& kv : cell.sets) {
      if (auto err = spec.apply_kv(kv, &rc.params)) {
        throw std::runtime_error(cell.label + ": " + *err);
      }
    }
    rc.params.set("seed", cell_seed(seed, i));
    rc.params.set("threads", std::int64_t{threads});
    if (auto err = spec.validate(rc.params)) {
      throw std::runtime_error(cell.label + ": " + *err);
    }
    rc.paths = static_cast<std::size_t>(rc.params.get_int("paths"));
    out.push_back(std::move(rc));
  }
  return out;
}

// ---- jobs: serve + search --------------------------------------------

struct JobBench::Impl {
  const scenario::ScenarioRegistry& registry;
  JobCycleConfig cfg;
  std::uint64_t seed;
  unsigned workers;
  std::string dir;
  serve::JobSpec job;
  std::vector<search::ResolvedSearch> searches;  ///< one per search seed
  std::vector<std::string> ref_cells;   ///< canonical digest per cell
  std::vector<std::string> ref_search;  ///< reference digest per search

  [[nodiscard]] search::SearchOptions search_options() const {
    search::SearchOptions so;
    so.budget = cfg.search_budget;
    so.threads = workers;
    return so;
  }
  [[nodiscard]] search::SearchResult run_search(std::size_t k,
                                                std::string journal) const {
    const search::ResolvedSearch& s = searches[k];
    search::SearchOptions so = search_options();
    so.journal_path = std::move(journal);
    return search::run_search(*registry.find(s.objective.scenario),
                              s.objective, s.axes, so);
  }
  std::string job_id;

  [[nodiscard]] std::string slot_dir(std::size_t slot) const {
    return dir + "/slot-" + std::to_string(slot);
  }
};

namespace {

std::string value_list(const char* name, double first, double step,
                       std::size_t n) {
  std::string text = std::string(name) + "=";
  for (std::size_t i = 0; i < n; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", first + step * static_cast<double>(i));
    text += (i == 0 ? "" : ",") + std::string(buf);
  }
  return text;
}

}  // namespace

JobBench::JobBench(const scenario::ScenarioRegistry& registry,
                   JobCycleConfig cfg, std::uint64_t seed, unsigned workers,
                   std::string dir)
    : impl_(std::make_shared<Impl>(
          Impl{registry, cfg, seed, workers, std::move(dir), {}, {}, {}, {},
               {}})) {
  Impl& m = *impl_;
  const scenario::Scenario* sc = registry.find("semiactive-sweep");
  if (sc == nullptr) throw std::runtime_error("no semiactive-sweep scenario");
  const scenario::ScenarioSpec& spec = sc->spec();
  m.job.scenario = "semiactive-sweep";
  m.job.base = spec.defaults();
  m.job.base.set("paths", cfg.paths);
  m.job.base.set("seed", cell_seed(seed, 0));
  if (cfg.branch_values < 1 || cfg.branch_values > 15 ||
      cfg.beta0_values < 1) {
    throw std::invalid_argument("job grid out of range");
  }
  for (const std::string& text :
       {value_list("beta0", 0.2, 0.2 / static_cast<double>(cfg.beta0_values),
                   cfg.beta0_values),
        "branches=2:" + std::to_string(1 + cfg.branch_values) + ":1"}) {
    scenario::SweepAxis axis;
    if (auto err = scenario::parse_sweep_axis(spec, text, &axis)) {
      throw std::runtime_error("job axis: " + *err);
    }
    m.job.axes.push_back(std::move(axis));
  }
  m.job.config.workers = workers;
  m.job_id = m.job.id();

  // Each search converges after a few dozen evaluations, so a cycle
  // runs several, each on its own seed and journal.
  for (std::size_t k = 0; k < cfg.searches; ++k) {
    std::string err;
    auto resolved = search::resolve_search(
        registry, "semiactive-duty",
        {"branches=2:16:1", "beta0=0.20:0.40:0.005"},
        {"seed=" + std::to_string(cell_seed(seed, 1 + k))}, &err);
    if (!resolved) throw std::runtime_error("search: " + err);
    m.searches.push_back(std::move(*resolved));
  }
  std::filesystem::create_directories(m.dir);
}

std::size_t JobBench::cells() const { return impl_->job.cell_count(); }

void JobBench::submit(std::size_t slot) {
  Impl& m = *impl_;
  std::filesystem::remove_all(m.slot_dir(slot));
  serve::JobService svc(m.registry, m.slot_dir(slot));
  std::string err;
  const auto id = svc.submit(m.job, &err);
  if (!id || *id != m.job_id) throw std::runtime_error("submit: " + err);
}

void JobBench::reference(const json::Value* golden, Checker* check,
                         json::Value* digests) {
  Impl& m = *impl_;
  const scenario::Scenario* sc = m.registry.find(m.job.scenario);
  scenario::ParamSet base = m.job.base;
  base.set("threads", std::int64_t{1});
  scenario::SweepConfig sweep;
  sweep.parallel_cells = true;
  sweep.threads = m.workers;
  const scenario::SweepResult res = scenario::run_sweep(*sc, base, m.job.axes,
                                                        sweep);
  m.ref_cells.clear();
  std::string all;
  for (const auto& cell : res.cells) {
    m.ref_cells.push_back(result_digest(cell.result));
    all += m.ref_cells.back();
  }
  for (std::size_t i = 0; i < res.cells.size() && i < 8; ++i) {
    sample_records_.push_back(res.cells[i].result.to_json());
  }
  digests->set("merged", digest(all));
  check_golden(golden, "merged", digest(all), check);

  m.ref_search.clear();
  for (std::size_t k = 0; k < m.searches.size(); ++k) {
    m.ref_search.push_back(digest(m.run_search(k, "").to_json().dump()));
    const std::string label = "search-" + std::to_string(k);
    digests->set(label, m.ref_search.back());
    check_golden(golden, label, m.ref_search.back(), check);
  }
}

JobCycleResult JobBench::cycle(std::size_t slot, bool fsync, Tracer* tracer,
                               Checker* check) {
  Impl& m = *impl_;
  JobCycleResult r;
  serve::JobService svc(m.registry, m.slot_dir(slot));
  serve::RunOptions ro;
  ro.workers = m.workers;
  ro.fsync_records = fsync;
  std::string err;
  const std::size_t total = m.job.cell_count();

  Stamp t0 = stamp();
  std::optional<serve::RunStats> cold;
  {
    auto span = tracer->span("serve", "JobService::run cold");
    cold = svc.run(m.job_id, ro, &err);
  }
  r.cold_s = unstolen_s(t0, stamp());
  if (!cold || !cold->completed || cold->executed != total) {
    check->fail("cold run: " + (cold ? "incomplete" : err), total);
    return r;
  }
  r.executed = cold->executed;
  r.respawns = cold->respawns;

  const auto journal = [&](std::size_t k) {
    return m.slot_dir(slot) + "/search-" + std::to_string(k) + ".jsonl";
  };
  t0 = stamp();
  std::vector<search::SearchResult> cold_search(m.searches.size());
  {
    auto span = tracer->span("search", "run_search cold");
    for (std::size_t k = 0; k < m.searches.size(); ++k) {
      cold_search[k] = m.run_search(k, journal(k));
    }
  }
  r.search_s = unstolen_s(t0, stamp());
  for (std::size_t k = 0; k < m.searches.size(); ++k) {
    const search::SearchResult& sr = cold_search[k];
    r.fresh_evals += sr.evaluations - sr.cache_hits;
    if (sr.cache_hits == 0 &&
        digest(sr.to_json().dump()) == m.ref_search.at(k)) {
      check->pass(sr.evaluations);
    } else {
      check->fail("journaled search " + std::to_string(k) +
                      " differs from the reference search",
                  sr.evaluations);
    }
  }

  // Read-back: resume (0 cells), status, canonical merge, warm search.
  t0 = stamp();
  std::optional<serve::RunStats> resumed;
  std::optional<serve::JobStatus> st;
  std::optional<json::Value> merged;
  std::vector<search::SearchResult> warm(m.searches.size());
  {
    auto span = tracer->span("serve", "read-back");
    {
      auto s = tracer->span("serve", "JobService::run resume");
      resumed = svc.run(m.job_id, ro, &err);
    }
    {
      auto s = tracer->span("serve", "JobService::status");
      st = svc.status(m.job_id, &err);
    }
    const Stamp m0 = stamp();
    {
      auto s = tracer->span("serve", "JobService::merged canonical");
      merged = svc.merged(m.job_id, /*canonical=*/true, &err);
    }
    r.merge_s = unstolen_s(m0, stamp());
    {
      auto s = tracer->span("search", "run_search warm");
      for (std::size_t k = 0; k < m.searches.size(); ++k) {
        warm[k] = m.run_search(k, journal(k));
      }
    }
  }
  r.readback_s = unstolen_s(t0, stamp());
  for (const search::SearchResult& w : warm) {
    r.warm_evals += w.evaluations;
    r.warm_replays += w.cache_hits;
  }

  std::string why;
  if (!resumed || resumed->executed != 0) why += " resume executed cells;";
  if (!st || st->done_cells != total || !st->merged) why += " status wrong;";
  if (r.warm_replays != r.warm_evals) why += " warm search re-evaluated;";
  if (why.empty()) {
    check->pass();
  } else {
    check->fail("read-back:" + why);
  }

  // Every merged cell must equal the in-process run_sweep cell.
  const json::Value* cells = merged ? merged->find("cells") : nullptr;
  if (cells == nullptr || cells->size() != m.ref_cells.size()) {
    check->fail("merge: " + err, total);
    return r;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < cells->size(); ++i) {
    if (digest(canonical_result(cells->at(i)).dump()) != m.ref_cells[i]) {
      ++bad;
    }
  }
  check->pass(total - bad);
  if (bad > 0) {
    check->fail(std::to_string(bad) + " merged cells differ from run_sweep",
                bad);
  }
  if (tracer->enabled()) {
    const auto raw = svc.merged(m.job_id, /*canonical=*/false, &err);
    if (raw) {
      for (const json::Value& cell : raw->find("cells")->as_array()) {
        const json::Value* meta = cell.find("meta");
        const json::Value* ms = meta ? meta->find("wall_ms") : nullptr;
        if (ms != nullptr && ms->is_number()) r.worker_cell_ms += ms->as_double();
      }
    }
  }
  return r;
}

namespace {

Outcome run_jobs_workload(const Options& opt, const Workload& w) {
  Outcome out;
  Tracer tracer(opt.trace);
  const json::Value golden_doc = load_golden(opt);
  const json::Value* golden = golden_for(opt, golden_doc);
  const std::string dir = opt.work_dir + "/jobs";

  // Set-up: registry build plus job-spec and search resolution.
  // Submission is left out: it fsyncs the manifest, and fsync latency on
  // a shared disk swamps the rest.  Samples are taken up front and after
  // every cycle, so that the median spans the run.
  std::vector<double> setup;
  const auto setup_sample = [&] {
    const double t0 = thread_cpu_s();
    auto reg = std::make_unique<scenario::ScenarioRegistry>();
    scenario::register_builtin_scenarios(*reg);
    auto b = std::make_unique<JobBench>(*reg, JobCycleConfig{}, opt.seed,
                                        opt.threads, dir);
    setup.push_back(thread_cpu_s() - t0);
    return std::make_pair(std::move(reg), std::move(b));
  };
  auto [registry, bench] = setup_sample();

  bench->reference(golden, &out.check, &out.digests);

  std::vector<double> cold_s;
  std::vector<double> readback;
  std::vector<JobCycleResult> cycles;
  std::vector<double> cycle_s;
  Tracer off(false);
  const JobCycleConfig cfg{};
  const auto one_cycle = [&](Tracer* t, bool fsync) {
    const std::size_t slot = cycles.size();
    bench->submit(slot);
    std::vector<double> cycle_ref;
    for (int k = 0; k < kSamplesPerCell; ++k) {
      cycle_ref.push_back(reference_loop_s());
    }
    const double scale = kReferenceS / median(cycle_ref);
    out.reference_s.insert(out.reference_s.end(), cycle_ref.begin(),
                           cycle_ref.end());
    const double c0 = now_s();
    const JobCycleResult r = bench->cycle(slot, fsync, t, &out.check);
    cycle_s.push_back(now_s() - c0);
    std::filesystem::remove_all(dir + "/slot-" + std::to_string(slot));
    if (r.executed == bench->cells() && r.cold_s > 0.0) {
      cold_s.push_back(r.cold_s * scale);
    }
    readback.push_back(r.readback_s * scale);
    cycles.push_back(r);
    for (int k = 0; k < kSamplesPerCell; ++k) (void)setup_sample();
  };
  // Timed cold runs keep records unsynced: fsync latency on a shared
  // disk varies several-fold from minute to minute.  The traced run
  // measures the durable (fsync on) rate as serve.durable_cells_per_s.
  if (opt.trace) {
    one_cycle(&off, false);
    one_cycle(&off, false);
    {
      auto root = tracer.span("perfbench", "jobs traced cycle");
      one_cycle(&tracer, false);
    }
    auto root = tracer.span("perfbench", "jobs durable cycle");
    one_cycle(&tracer, true);
  } else {
    repeat_for(opt.seconds, [&] { one_cycle(&off, false); });
  }
  std::filesystem::remove_all(dir);
  if (cold_s.empty()) throw std::runtime_error("no jobs cycle completed");
  json::Value cold = json::Value::array();
  json::Value back = json::Value::array();
  for (const double s : cold_s) cold.push_back(s);
  for (const double s : readback) back.push_back(s);
  out.cell_s.set("cold-run", std::move(cold));
  out.cell_s.set("read-back", std::move(back));

  if (!opt.trace) {
    const double cells = static_cast<double>(bench->cells());
    const double cold = fast_mean(cold_s);
    out.metrics.push_back(metric("setup_s", "s", median(setup)));
    out.metrics.push_back(metric(
        "trials_per_s", "trials/s",
        rate(cells * static_cast<double>(cfg.paths), cold)));
    out.metrics.push_back(metric("cells_per_s", "cells/s", rate(cells, cold)));
    out.metrics.push_back(metric("readback_s", "s", fast_mean(readback)));
    out.metrics.push_back(metric("peak_rss_mb", "MiB", peak_rss_mb()));
    return out;
  }

  ProbeInputs in;
  in.workload = &w;
  in.registry = registry.get();
  in.records = bench->sample_records();
  in.overhead = cycle_s[2] / cycle_s[1];
  in.job = &cycles[2];
  in.durable_job = &cycles[3];
  in.job_cells = bench->cells();
  in.threads = opt.threads;
  in.seed = opt.seed;
  in.work_dir = opt.work_dir;
  finish_traced(opt, in, &tracer, &out);
  return out;
}

}  // namespace

Outcome run_workload(const Options& opt) {
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) throw std::invalid_argument("unknown workload");
  return w->cells.empty() ? run_jobs_workload(opt, *w)
                          : run_sim_workload(opt, *w);
}

}  // namespace perfbench
