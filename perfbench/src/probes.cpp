// Per-layer probes: each times one layer's public calls from outside,
// on inputs shaped like the workload being traced.  Sub-microsecond
// calls are timed in batches; one sample is one batch's mean per call.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/bench.hpp"
#include "src/bouncing/attack_sim.hpp"
#include "src/bouncing/montecarlo.hpp"
#include "src/chain/blocktree.hpp"
#include "src/chain/forkchoice.hpp"
#include "src/chain/shuffle.hpp"
#include "src/crypto/keys.hpp"
#include "src/crypto/sha256.hpp"
#include "src/faults/driver.hpp"
#include "src/finality/ffg.hpp"
#include "src/kernel/accumulators.hpp"
#include "src/kernel/cohort.hpp"
#include "src/kernel/stake_batch.hpp"
#include "src/net/event_queue.hpp"
#include "src/penalties/inactivity.hpp"
#include "src/runner/thread_pool.hpp"
#include "src/search/journal.hpp"
#include "src/search/objective.hpp"
#include "src/serve/store.hpp"
#include "src/sim/partition_sim.hpp"
#include "src/sim/slot_sim.hpp"
#include "src/support/crc32.hpp"
#include "src/support/random.hpp"

namespace perfbench {

namespace {

using leak::Epoch;
using leak::Slot;
using leak::ValidatorIndex;

// Defeats dead-code elimination of probed calls' results.
volatile std::uint64_t g_sink = 0;

void sink(std::uint64_t v) { g_sink = g_sink + v; }

class Recorder {
 public:
  Recorder(Tracer* tracer, std::vector<Metric>* out)
      : tracer_(tracer), out_(out) {}

  /// `batches` samples; each runs `per_batch` calls of fn(i) inside one
  /// span and records the batch time x `scale` / (`per_batch` x `units`).
  void timed(const std::string& layer, const std::string& name,
             const std::string& unit, std::size_t batches,
             std::size_t per_batch, double scale, double units,
             const std::function<void(std::size_t)>& fn) {
    std::vector<double> samples;
    samples.reserve(batches);
    std::size_t call = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      const double t0 = now_s();
      {
        auto span = tracer_->span(layer, name);
        for (std::size_t j = 0; j < per_batch; ++j) fn(call++);
      }
      samples.push_back((now_s() - t0) * scale /
                        (static_cast<double>(per_batch) * units));
    }
    add_samples(name, unit, std::move(samples));
  }

  void add_samples(const std::string& name, const std::string& unit,
                   std::vector<double> samples, std::string note = "") {
    Metric m;
    m.name = name;
    m.unit = unit;
    m.timed = true;
    m.summary = summarize(std::move(samples));
    m.value = m.summary.p50;
    m.note = std::move(note);
    out_->push_back(std::move(m));
  }

  void value(const std::string& name, const std::string& unit, double v,
             std::string note = "") {
    Metric m;
    m.name = name;
    m.unit = unit;
    m.value = v;
    m.note = std::move(note);
    out_->push_back(std::move(m));
  }

  [[nodiscard]] Tracer* tracer() const { return tracer_; }

 private:
  Tracer* tracer_;
  std::vector<Metric>* out_;
};

constexpr double kNs = 1e9;
constexpr double kUs = 1e6;
constexpr double kMs = 1e3;

// ---- scenario + runner ------------------------------------------------

void probe_scenario_runner(const ProbeInputs& in, Recorder& rec) {
  if (!in.cell_ms.empty()) {
    rec.add_samples("scenario.cell_ms", "ms", in.cell_ms);
  } else {
    // jobs: cells of the job's grid, run in-process one after another.
    std::vector<double> ms;
    const auto* sc = in.registry->find("semiactive-sweep");
    for (std::size_t i = 0; i < 24; ++i) {
      scenario::ParamSet p = sc->spec().defaults();
      p.set("paths", std::int64_t{64});
      p.set("threads", std::int64_t{1});
      p.set("beta0", 0.2 + 0.008 * static_cast<double>(i));
      p.set("seed", cell_seed(in.seed, 0));
      const double t0 = now_s();
      auto span = rec.tracer()->span("scenario", "Scenario::run job cell");
      const auto r = sc->run(p);
      ms.push_back(kMs * (now_s() - t0));
      sink(r.metrics.size());
    }
    rec.add_samples("scenario.cell_ms", "ms", std::move(ms));
  }

  std::vector<double> json_ms;
  std::vector<double> bytes;
  for (int rep = 0; rep < 3; ++rep) {
    for (const json::Value& r : in.records.as_array()) {
      const double t0 = now_s();
      std::string text;
      {
        auto span = rec.tracer()->span("scenario", "result to_json+dump");
        text = r.dump();
      }
      json_ms.push_back(kMs * (now_s() - t0));
      if (rep == 0) bytes.push_back(static_cast<double>(text.size()));
    }
  }
  rec.add_samples("scenario.result_json_ms", "ms", std::move(json_ms));
  rec.value("scenario.result_json_bytes", "bytes", median(bytes));

  // runner: blocks per cell at the auto block size, and the
  // representative cell at one thread vs the workload's thread count.
  const std::size_t block = leak::runner::resolve_block(0);
  std::vector<double> blocks;
  for (const ResolvedCell& c : in.cells) {
    blocks.push_back(static_cast<double>(blocks_for(c.paths, block)));
  }
  if (blocks.empty()) blocks.push_back(static_cast<double>(blocks_for(64, block)));
  rec.value("runner.blocks_per_cell", "count", median(blocks),
            "computed: median over cells of ceil(paths / resolve_block(0))");

  double speedup = 1.0;
  if (!in.cells.empty()) {
    const ResolvedCell& c = in.cells.at(in.workload->representative);
    std::vector<double> secs;
    for (unsigned threads : {1U, in.threads}) {
      scenario::ParamSet p = c.params;
      p.set("threads", std::int64_t{threads});
      const double t0 = now_s();
      auto span = rec.tracer()->span(
          "runner", "parallel " + c.label + " t" + std::to_string(threads));
      sink(c.scenario->run(p).metrics.size());
      secs.push_back(now_s() - t0);
    }
    speedup = secs[0] / secs[1];
  } else if (in.job != nullptr && in.job->cold_s > 0.0) {
    // jobs: in-worker cell time over cold-run wall time.
    speedup = in.job->worker_cell_ms / (kMs * in.job->cold_s);
  }
  rec.value("runner.parallel_speedup", "ratio", speedup);
}

// ---- kernel + bouncing -----------------------------------------------

void probe_kernel(const ProbeInputs& in, Recorder& rec) {
  const auto model = leak::analytic::AnalyticConfig::paper();
  const leak::StreamSeeder seeder(static_cast<std::uint64_t>(cell_seed(in.seed, 7)));

  leak::kernel::BatchPaths paths;
  constexpr std::size_t kLanes = 64;
  paths.reset(model, seeder, 0, kLanes);
  rec.timed("kernel", "kernel.batch_step_ns_per_path", "ns", 200, 50, kNs,
            kLanes, [&](std::size_t) { paths.step(model, 0.5); });
  sink(static_cast<std::uint64_t>(paths.stake()[0]));

  leak::kernel::LeakCohort cohort;
  constexpr std::size_t kCohort = 200;
  cohort.reset(kCohort, model);
  leak::Rng rng(static_cast<std::uint64_t>(cell_seed(in.seed, 8)));
  rec.timed("kernel", "kernel.cohort_draw_ns_per_lane", "ns", 200, 50, kNs,
            kCohort, [&](std::size_t) { cohort.draw(rng); });
  rec.timed("kernel", "kernel.cohort_update_ns_per_lane", "ns", 200, 50, kNs,
            kCohort, [&](std::size_t) { cohort.update(model, 0.5); });
  double total = 0.0;
  rec.timed("kernel", "kernel.cohort_stake_sum_ns_per_lane", "ns", 200, 50,
            kNs, kCohort, [&](std::size_t) { total += cohort.stake_sum(); });
  sink(static_cast<std::uint64_t>(total));

  const std::vector<std::size_t> snaps = {1000, 2000, 4000};
  leak::kernel::SnapshotAccumulators acc(2, 0.33, model, snaps);
  rec.timed("kernel", "kernel.snapshot_add_ns", "ns", 200, 1000, kNs, 1,
            [&](std::size_t i) {
              acc.add(i % snaps.size(), 16.0 + static_cast<double>(i % 97) * 0.16);
            });

  // bouncing: direct driver calls on one montecarlo-shaped config.
  leak::bouncing::McConfig mc;
  mc.paths = 20000;
  mc.epochs = 4024;
  mc.threads = in.threads;
  mc.keep_paths = false;
  mc.seed = static_cast<std::uint64_t>(cell_seed(in.seed, 9));
  rec.timed("bouncing", "bouncing.mc_ms", "ms", 5, 1, kMs, 1,
            [&](std::size_t) {
              sink(leak::bouncing::run_bouncing_mc(mc, {mc.epochs})
                       .ejected_fraction.size());
            });
  leak::bouncing::PopulationEnsembleConfig pop;
  pop.paths = 128;
  pop.base.epochs = 2000;
  pop.threads = in.threads;
  pop.keep_paths = false;
  pop.base.seed = mc.seed;
  rec.timed("bouncing", "bouncing.population_ms", "ms", 5, 1, kMs, 1,
            [&](std::size_t) {
              sink(static_cast<std::uint64_t>(
                  1e6 * leak::bouncing::run_population_ensemble(pop)
                            .exceed_fraction));
            });
  leak::bouncing::AttackSimConfig atk;
  atk.runs = 10000;
  atk.threads = in.threads;
  atk.keep_runs = false;
  atk.seed = mc.seed;
  rec.timed("bouncing", "bouncing.attack_ms", "ms", 5, 1, kMs, 1,
            [&](std::size_t) {
              sink(static_cast<std::uint64_t>(
                  leak::bouncing::run_attack_sim(atk).mean_duration));
            });
}

// ---- penalties + sim + faults ----------------------------------------

void process_epoch_ns_per_validator(Recorder& rec, std::uint32_t n,
                                      std::size_t epochs,
                                      const std::string& name) {
  leak::chain::ValidatorRegistry registry(n);
  leak::penalties::InactivityTracker tracker(
      registry, leak::penalties::SpecConfig::paper());
  std::vector<std::uint8_t> active(n);
  for (std::uint32_t i = 0; i < n; ++i) active[i] = (i % 2 == 0) ? 1 : 0;
  const std::size_t per_batch = std::max<std::size_t>(1, 40000 / n);
  rec.timed("penalties", name, "ns", epochs / per_batch, per_batch, kNs, n,
            [&](std::size_t e) {
              sink(tracker.process_epoch(Epoch{e + 1}, Epoch{0}, active)
                       .total_penalty.value());
            });
}

void probe_penalties_sim(const ProbeInputs& in, Recorder& rec) {
  process_epoch_ns_per_validator(rec, 400, 4000,
                                 "penalties.process_epoch_ns_per_validator_small");
  process_epoch_ns_per_validator(rec, 50000, 200,
                                 "penalties.process_epoch_ns_per_validator_large");

  // Calls the workload's partition cells make, computed from config:
  // paths x branches x horizon (an upper bound; trials stop early).
  double calls = 0.0;
  for (const ResolvedCell& c : in.cells) {
    const auto& name = c.scenario->spec().name();
    if (name != "partition-trials" && name != "multi-partition-recovery" &&
        name != "cascading-partitions") {
      continue;
    }
    const double branches =
        c.params.contains("branches")
            ? static_cast<double>(c.params.get_int("branches"))
            : 2.0;
    calls += static_cast<double>(c.paths) * branches *
             static_cast<double>(c.params.get_int("max_epochs"));
  }
  rec.value("penalties.process_epoch_calls", "count", calls,
            "computed: sum of paths x branches x max_epochs (horizon bound)");

  leak::sim::PartitionSimConfig pcfg;
  pcfg.n_validators = 400;
  pcfg.beta0 = 0.2;
  pcfg.strategy = leak::sim::Strategy::kSemiActiveFinalize;
  pcfg.max_epochs = 5000;
  rec.timed("sim", "sim.partition_ms_per_trial", "ms", 10, 1, kMs, 1,
            [&](std::size_t) {
              sink(static_cast<std::uint64_t>(
                  leak::sim::run_partition_sim(pcfg)
                      .conflicting_finalization_epoch));
            });

  // Slot sim shaped like the slot workload's flaky-network cell.
  leak::sim::SlotSimConfig scfg;
  scfg.n_honest = 32;
  scfg.epochs = 6;
  scfg.seed = static_cast<std::uint64_t>(cell_seed(in.seed, 10));
  const double epoch_s = static_cast<double>(leak::kSlotsPerEpoch *
                                             leak::kSecondsPerSlot);
  scfg.latency_episodes.push_back({2 * epoch_s, 4 * epoch_s,
                                   leak::net::LinkClass::kAll, 3.0});
  scfg.loss_episodes.push_back({4 * epoch_s, 6 * epoch_s,
                                leak::net::LinkClass::kAll, 0.15});
  std::vector<double> setup_ms;
  std::vector<double> run_ms;
  leak::sim::SlotSimResult last;
  for (int k = 0; k < 3; ++k) {
    double t0 = now_s();
    std::unique_ptr<leak::sim::SlotSim> sim;
    {
      auto span = rec.tracer()->span("sim", "SlotSim::SlotSim");
      sim = std::make_unique<leak::sim::SlotSim>(scfg);
    }
    setup_ms.push_back(kMs * (now_s() - t0));
    t0 = now_s();
    {
      auto span = rec.tracer()->span("sim", "SlotSim::run");
      last = sim->run();
    }
    run_ms.push_back(kMs * (now_s() - t0));
  }
  rec.add_samples("sim.slot_setup_ms", "ms", std::move(setup_ms));
  rec.add_samples("sim.slot_run_ms", "ms", std::move(run_ms));
  const double sent = static_cast<double>(last.messages_delivered +
                                          last.messages_dropped);
  rec.value("net.messages_delivered", "count",
            static_cast<double>(last.messages_delivered),
            "from the probe SlotSim run");
  rec.value("net.dropped_fraction", "ratio",
            sent > 0 ? static_cast<double>(last.messages_dropped) / sent : 0.0,
            "from the probe SlotSim run");

  const auto schedule =
      leak::faults::FaultSchedule::staggered_partition(3, 2, 20, 5);
  rec.timed("faults", "faults.compile_partition_us", "us", 100, 10, kUs, 1,
            [&](std::size_t) {
              leak::sim::PartitionSimConfig cfg;
              cfg.n_validators = 300;
              leak::faults::compile_partition(schedule, &cfg);
              sink(cfg.windows.size());
            });
}

// ---- chain + crypto + finality + net -----------------------------------

void probe_protocol(const ProbeInputs& in, Recorder& rec) {
  // A two-sided fork as the slot workload builds: a shared prefix of
  // half the depth, then two branches; depth = the slot workload's
  // 3 epochs x 32 slots, voted on by its 32 + 8 validators.
  constexpr std::uint64_t kDepth = 3 * leak::kSlotsPerEpoch;
  constexpr std::uint32_t kValidators = 40;
  leak::chain::BlockTree tree;
  std::vector<leak::crypto::Digest> all;
  leak::crypto::Digest tip = tree.genesis_id();
  for (std::uint64_t s = 1; s <= kDepth / 2; ++s) {
    const auto b = leak::chain::Block::make(tip, Slot{s}, ValidatorIndex{0});
    tree.insert(b);
    tip = b.id;
    all.push_back(tip);
  }
  std::array<leak::crypto::Digest, 2> leaves = {tip, tip};
  for (std::uint64_t s = kDepth / 2 + 1; s <= kDepth; ++s) {
    for (std::uint32_t side = 0; side < 2; ++side) {
      const auto b = leak::chain::Block::make(
          leaves[side], Slot{s}, ValidatorIndex{side},
          leak::crypto::sha256(std::string_view(side == 0 ? "a" : "b")));
      tree.insert(b);
      leaves[side] = b.id;
      all.push_back(b.id);
    }
  }
  leak::chain::ValidatorRegistry registry(kValidators);
  leak::chain::ForkChoice fc(tree, registry);
  for (std::uint32_t v = 0; v < kValidators; ++v) {
    fc.on_attestation(ValidatorIndex{v}, leaves[v % 2], Slot{kDepth});
  }
  rec.timed("chain", "chain.forkchoice_head_us", "us", 30, 1, kUs, 1,
            [&](std::size_t) {
              sink(fc.head(tree.genesis_id(), Epoch{6})[0]);
            });
  rec.timed("chain", "chain.forkchoice_on_attestation_ns", "ns", 100,
            kValidators, kNs, 1, [&](std::size_t i) {
              fc.on_attestation(ValidatorIndex{static_cast<std::uint32_t>(
                                    i % kValidators)},
                                leaves[(i / kValidators) % 2],
                                Slot{kDepth + 1 + i / kValidators});
            });
  leak::Rng rng(static_cast<std::uint64_t>(cell_seed(in.seed, 11)));
  rec.timed("chain", "chain.blocktree_is_ancestor_ns", "ns", 100, 20, kNs, 1,
            [&](std::size_t i) {
              const auto& a = all[rng.uniform_index(all.size())];
              sink(tree.is_ancestor(a, leaves[i % 2]) ? 1 : 0);
            });
  rec.timed("chain", "chain.duty_roster_us", "us", 100, 1, kUs, 1,
            [&](std::size_t e) {
              const leak::chain::DutyRoster roster(registry, Epoch{e}, 42);
              sink(roster.proposer(0).value());
            });

  leak::crypto::KeyRegistry keys;
  const auto pairs = keys.generate(kValidators, 42);
  std::vector<leak::crypto::Digest> msgs;
  for (std::size_t i = 0; i < 256; ++i) msgs.push_back(all[i % all.size()]);
  std::vector<leak::crypto::Signature> sigs(msgs.size());
  rec.timed("crypto", "crypto.sign_ns", "ns", 100, 256, kNs, 1,
            [&](std::size_t i) {
              sigs[i % 256] = pairs[i % kValidators].sign(msgs[i % 256]);
            });
  rec.timed("crypto", "crypto.verify_ns", "ns", 100, 256, kNs, 1,
            [&](std::size_t i) {
              sink(keys.verify(msgs[i % 256], sigs[i % 256]) ? 1 : 0);
            });
  const std::string buf(1 << 20, 'x');
  std::vector<double> sha_mb_s;
  for (int k = 0; k < 20; ++k) {
    const double t0 = now_s();
    {
      auto span = rec.tracer()->span("crypto", "sha256 1 MiB");
      sink(leak::crypto::sha256(buf)[0]);
    }
    sha_mb_s.push_back(static_cast<double>(buf.size()) / 1e6 / (now_s() - t0));
  }
  rec.add_samples("crypto.sha256_mb_per_s", "MB/s", std::move(sha_mb_s));

  // finality: every validator votes each epoch's checkpoint, then the
  // epoch is processed (justify + finalize), as the slot sim does.
  leak::finality::FfgTracker ffg(registry,
                                 leak::chain::Checkpoint{tree.genesis_id(),
                                                         Epoch{0}});
  std::vector<double> vote_ns;
  std::vector<double> epoch_us;
  for (std::uint64_t e = 1; e <= 64; ++e) {
    leak::chain::Attestation att;
    att.source = ffg.justified();
    att.target = leak::chain::Checkpoint{
        leak::crypto::sha256(std::string_view(std::to_string(e))), Epoch{e}};
    double t0 = now_s();
    {
      auto span = rec.tracer()->span("finality", "FfgTracker::on_checkpoint_vote");
      for (std::uint32_t v = 0; v < kValidators; ++v) {
        att.attester = ValidatorIndex{v};
        ffg.on_checkpoint_vote(att);
      }
    }
    vote_ns.push_back(kNs * (now_s() - t0) / kValidators);
    t0 = now_s();
    {
      auto span = rec.tracer()->span("finality", "FfgTracker::process_epoch");
      sink(ffg.process_epoch(Epoch{e}).has_value() ? 1 : 0);
    }
    epoch_us.push_back(kUs * (now_s() - t0));
  }
  rec.add_samples("finality.on_checkpoint_vote_ns", "ns", std::move(vote_ns));
  rec.add_samples("finality.process_epoch_us", "us", std::move(epoch_us));

  constexpr std::size_t kEvents = 1000;
  rec.timed("net", "net.event_ns", "ns", 100, 1, kNs, kEvents,
            [&](std::size_t) {
              leak::net::EventQueue q;
              std::uint64_t fired = 0;
              for (std::size_t i = 0; i < kEvents; ++i) {
                q.schedule_at(rng.uniform(0.0, 384.0), [&fired] { ++fired; });
              }
              q.run_until(leak::kSimTimeInfinity);
              sink(fired);
            });
}

// ---- serve + search + support ----------------------------------------

/// MB/s samples of `fn` over `bytes`-sized inputs, repeated so each
/// sample covers at least 1 MB.
std::vector<double> throughput_mb_s(Recorder& rec, const std::string& layer,
                                    const std::string& name, std::size_t bytes,
                                    const std::function<void()>& fn) {
  const std::size_t reps = std::max<std::size_t>(1, 1000000 / bytes);
  std::vector<double> out;
  for (int k = 0; k < 11; ++k) {
    const double t0 = now_s();
    {
      auto span = rec.tracer()->span(layer, name);
      for (std::size_t r = 0; r < reps; ++r) fn();
    }
    out.push_back(static_cast<double>(bytes * reps) / 1e6 / (now_s() - t0));
  }
  return out;
}

void probe_serve_search_support(const ProbeInputs& in, Recorder& rec,
                                Checker* check) {
  namespace fs = std::filesystem;
  const std::string dir = in.work_dir + "/probe-store";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const json::Array& records = in.records.as_array();
  if (records.empty()) throw std::runtime_error("no records to probe");

  // Append counts are capped by bytes: some workloads' records carry a
  // per-trial table of a megabyte.
  double mean_bytes = 0.0;
  for (const json::Value& r : records) {
    mean_bytes += static_cast<double>(r.dump().size());
  }
  mean_bytes /= static_cast<double>(records.size());
  const auto appends = [&](double budget_bytes, std::size_t most) {
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(budget_bytes / mean_bytes), 11, most);
  };
  {
    leak::serve::ResultsStore store(dir + "/sync.jsonl");
    rec.timed("serve", "serve.append_us", "us", appends(2e6, 60), 1, kUs, 1,
              [&](std::size_t i) {
                if (!store.append(records[i % records.size()], true)) {
                  throw std::runtime_error("store append failed");
                }
              });
  }
  {
    leak::serve::ResultsStore store(dir + "/nosync.jsonl");
    const std::size_t n = appends(4e6, 400);
    rec.timed("serve", "serve.append_nosync_us", "us", n, 1, kUs, 1,
              [&](std::size_t i) {
                if (!store.append(records[i % records.size()], false)) {
                  throw std::runtime_error("store append failed");
                }
              });
    std::vector<double> scan_us;
    for (int k = 0; k < 11; ++k) {
      const double t0 = now_s();
      leak::serve::StoreScan scan;
      {
        auto span = rec.tracer()->span("serve", "ResultsStore::scan");
        scan = store.scan();
      }
      if (scan.records.size() != n) {
        throw std::runtime_error("store scan lost records");
      }
      scan_us.push_back(kUs * (now_s() - t0) / static_cast<double>(n));
    }
    rec.add_samples("serve.scan_us_per_record", "us", std::move(scan_us));
  }
  std::vector<double> framed;
  for (const json::Value& r : records) {
    framed.push_back(
        static_cast<double>(leak::serve::ResultsStore::frame(r).size()));
  }
  rec.value("serve.record_bytes", "bytes", median(framed));

  // The job cycle: the jobs workload's own, else a 64-cell probe job.
  JobCycleResult job;
  JobCycleResult durable;
  std::size_t cells = in.job_cells;
  if (in.job != nullptr) {
    job = *in.job;
    durable = *in.durable_job;
  } else {
    JobBench small(*in.registry, JobCycleConfig{8, 8, 64, 2, 40}, in.seed,
                   in.threads, dir + "/jobs");
    small.submit(0);
    json::Value digests = json::Value::object();
    small.reference(nullptr, check, &digests);
    job = small.cycle(0, /*fsync=*/true, rec.tracer(), check);
    durable = job;
    cells = small.cells();
  }
  rec.value("serve.durable_cells_per_s", "cells/s",
            rate(static_cast<double>(durable.executed), durable.cold_s),
            "cold run with every record fsync'd");
  rec.value("serve.orchestration_ms_per_cell", "ms",
            (kMs * job.cold_s * in.threads - job.worker_cell_ms) /
                static_cast<double>(cells),
            "computed: (cold-run wall x workers - in-worker cell time) / cells");
  rec.value("serve.merge_ms", "ms", kMs * job.merge_s);
  rec.value("serve.worker_respawns", "count",
            static_cast<double>(job.respawns));
  rec.value("serve.retries", "count", static_cast<double>(job.respawns),
            "computed: one retry per respawn");

  std::string err;
  const auto resolved = leak::search::resolve_search(
      *in.registry, "semiactive-duty", {}, {}, &err);
  if (!resolved) throw std::runtime_error("search: " + err);
  auto journal = leak::search::EvalJournal::open(
      dir + "/journal.jsonl", resolved->objective, resolved->axes, &err);
  if (!journal) throw std::runtime_error("journal: " + err);
  rec.timed("search", "search.journal_append_us", "us", 60, 1, kUs, 1,
            [&](std::size_t i) {
              if (!journal->append({i % 7, i / 7}, resolved->objective.base,
                                   static_cast<double>(i))) {
                throw std::runtime_error("journal append failed");
              }
            });
  rec.value("search.evals_per_s", "evals/s",
            rate(static_cast<double>(job.fresh_evals), job.search_s),
            "cold searches, every evaluation journaled and fsync'd");
  rec.value("search.fresh_evals", "count",
            static_cast<double>(job.fresh_evals), "cold search");
  rec.value("search.replay_fraction", "ratio",
            job.warm_evals > 0 ? static_cast<double>(job.warm_replays) /
                                     static_cast<double>(job.warm_evals)
                               : 0.0,
            "warm search: replays / evaluations requested");

  const std::string text = in.records.dump();
  rec.add_samples("support.json_dump_mb_per_s", "MB/s",
                  throughput_mb_s(rec, "support", "json dump", text.size(),
                                  [&] { sink(in.records.dump().size()); }));
  rec.add_samples("support.json_parse_mb_per_s", "MB/s",
                  throughput_mb_s(rec, "support", "json parse", text.size(),
                                  [&] {
                                    sink(json::Value::parse(text)->size());
                                  }));
  rec.add_samples("support.crc32_mb_per_s", "MB/s",
                  throughput_mb_s(rec, "support", "crc32", text.size(),
                                  [&] { sink(leak::crc32::of(text)); }));
  fs::remove_all(dir);
}

}  // namespace

void run_probes(const ProbeInputs& in, Tracer* tracer, Checker* check,
                std::vector<Metric>* out) {
  auto root = tracer->span("perfbench", "probes");
  Recorder rec(tracer, out);
  probe_scenario_runner(in, rec);
  probe_kernel(in, rec);
  probe_penalties_sim(in, rec);
  probe_protocol(in, rec);
  probe_serve_search_support(in, rec, check);
  rec.value("trace.overhead_ratio", "ratio", in.overhead,
            "traced / untraced wall time of one workload pass");
}

}  // namespace perfbench
