#include "src/serve/service.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "src/serve/store.hpp"
#include "src/serve/worker.hpp"
#include "src/support/crc32.hpp"

namespace leak::serve {

namespace {

/// mkdir -p: every component, EEXIST is fine.
[[nodiscard]] bool make_dirs(const std::string& path) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    prefix.assign(path, 0, end);
    pos = end + 1;
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    if (slash == std::string::npos) break;
  }
  return true;
}

/// Durable atomic file replace: write <path>.tmp, fsync, close,
/// rename.  A failed close (a deferred write error) fails the write.
[[nodiscard]] bool atomic_write(const std::string& path,
                                const std::string& text) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool written = write_all(fd, text) && ::fsync(fd) == 0;
  const bool ok = ::close(fd) == 0 && written;
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  return ::rename(tmp.c_str(), path.c_str()) == 0;
}

[[nodiscard]] bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// Validated view of one store record against a loaded job.
struct LedgerEntry {
  std::size_t cell = 0;
  bool is_error = false;
};

/// Check one store record, at `at`, against the job.  Returns nullopt
/// and sets `error` (naming the offending field) on a bad record.
[[nodiscard]] std::optional<LedgerEntry> validate_record(
    const JobSpec& job, const std::string& id, const json::Field& at,
    std::string* error) {
  try {
    json::Fields f(at);
    const json::Field type = f.get("type");
    const json::Field rec_job = f.get("job");
    if (rec_job.string() != id) {
      rec_job.fail("record belongs to job " + rec_job.string() + ", not " +
                   id);
    }
    LedgerEntry entry;
    entry.cell = static_cast<std::size_t>(f.get("cell").integer(
        0, static_cast<std::int64_t>(job.cell_count()) - 1));
    if (type.string() == "error") {
      entry.is_error = true;
      (void)f.get("what").string();
    } else if (type.string() == "cell") {
      const json::Field fp = f.get("fp");
      if (fp.string() != crc32::to_hex(job.cell_fingerprint(entry.cell))) {
        fp.fail("record for cell " + std::to_string(entry.cell) +
                " does not match the manifest (fingerprint mismatch)");
      }
      (void)f.get("result");
    } else {
      type.fail("unknown record type \"" + type.string() + "\"");
    }
    f.finish();
    return entry;
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

/// The job's ledger as run() and status() read it: the first record
/// of each cell (a retried cell's later records are skipped).
struct Ledger {
  std::vector<std::uint8_t> done;      ///< per cell: has a record
  std::vector<json::Value> payloads;   ///< per done cell: its record
  std::size_t done_cells = 0;
  bool had_errors = false;             ///< some cell's record is an error
};

/// Validate every scanned record against the job.  A bad record fails
/// the whole read, with `error` naming the store and the record.
[[nodiscard]] std::optional<Ledger> read_ledger(const JobSpec& job,
                                                const std::string& id,
                                                const std::string& store_path,
                                                StoreScan scan,
                                                std::string* error) {
  Ledger ledger;
  ledger.done.assign(job.cell_count(), 0);
  ledger.payloads.resize(job.cell_count());
  const json::Field records("records");
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    json::Value& payload = scan.records[i].payload;
    auto entry =
        validate_record(job, id, json::Field(records, i, payload), error);
    if (!entry) {
      if (error != nullptr) *error = store_path + ": " + *error;
      return std::nullopt;
    }
    if (ledger.done[entry->cell] != 0) continue;
    ledger.done[entry->cell] = 1;
    ledger.had_errors = ledger.had_errors || entry->is_error;
    ledger.payloads[entry->cell] = std::move(payload);
    ++ledger.done_cells;
  }
  return ledger;
}

/// Rebuild one cell result with meta.wall_ms zeroed (json::Value has
/// no mutable nested access; set() replaces in place on a copy).
[[nodiscard]] json::Value zero_wall_ms(const json::Value& result) {
  if (!result.is_object()) return result;
  const json::Value* meta = result.find("meta");
  if (meta == nullptr || !meta->is_object()) return result;
  json::Value new_meta = *meta;
  new_meta.set("wall_ms", 0.0);
  json::Value out = result;
  out.set("meta", std::move(new_meta));
  return out;
}

}  // namespace

JobService::JobService(const scenario::ScenarioRegistry& registry,
                       std::string jobs_dir)
    : registry_(registry), jobs_dir_(std::move(jobs_dir)) {}

std::string JobService::job_dir(const std::string& id) const {
  return jobs_dir_ + "/" + id;
}

std::optional<std::string> JobService::submit(const JobSpec& job,
                                              std::string* error) {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  const scenario::Scenario* sc = registry_.find(job.scenario);
  if (sc == nullptr) {
    return fail("unknown scenario \"" + job.scenario + "\"");
  }
  if (auto err = sc->spec().validate(job.base)) return fail(*err);
  if (job.cell_count() == 0) return fail("job has no cells (empty axis)");
  const std::string id = job.id();
  const std::string dir = job_dir(id);
  if (!make_dirs(dir)) {
    return fail(dir + ": cannot create job directory");
  }
  const std::string manifest = dir + "/manifest.json";
  if (file_exists(manifest)) {
    // Content-addressed id: an existing manifest is the same
    // experiment.  Re-submitting resumes it instead of duplicating.
    return id;
  }
  if (!atomic_write(manifest, job.to_json().dump(2) + "\n")) {
    return fail(manifest + ": cannot write manifest");
  }
  return id;
}

std::optional<JobSpec> JobService::load(const std::string& id,
                                        std::string* error) const {
  const std::string manifest = job_dir(id) + "/manifest.json";
  auto doc = json::Value::load_file(manifest, error);
  if (!doc) return std::nullopt;
  auto job = JobSpec::from_json(registry_, *doc, error);
  if (!job) return std::nullopt;
  if (job->id() != id) {
    if (error != nullptr) {
      *error = manifest + ": manifest identity " + job->id() +
               " does not match job directory " + id;
    }
    return std::nullopt;
  }
  return job;
}

std::optional<JobStatus> JobService::status(const std::string& id,
                                            std::string* error) const {
  auto job = load(id, error);
  if (!job) return std::nullopt;
  JobStatus st;
  st.id = id;
  st.scenario = job->scenario;
  st.total_cells = job->cell_count();
  const ResultsStore store(job_dir(id) + "/results.jsonl");
  const auto ledger =
      read_ledger(*job, id, store.path(), store.scan(error), error);
  if (!ledger) return std::nullopt;
  st.done_cells = ledger->done_cells;
  st.merged = file_exists(job_dir(id) + "/merged.json");
  return st;
}

std::vector<JobStatus> JobService::list() const {
  std::vector<JobStatus> out;
  DIR* dir = ::opendir(jobs_dir_.c_str());
  if (dir == nullptr) return out;  // no directory yet: no jobs
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (!file_exists(job_dir(name) + "/manifest.json")) continue;
    std::string error;
    if (auto st = status(name, &error)) {
      out.push_back(std::move(*st));
    } else {
      JobStatus& broken = out.emplace_back();
      broken.id = name;
      broken.error = std::move(error);
    }
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end(),
            [](const JobStatus& a, const JobStatus& b) { return a.id < b.id; });
  return out;
}

std::optional<RunStats> JobService::run(const std::string& id,
                                        const RunOptions& options,
                                        std::string* error) {
  auto job = load(id, error);
  if (!job) return std::nullopt;
  const scenario::Scenario* sc = registry_.find(job->scenario);

  ResultsStore store(job_dir(id) + "/results.jsonl");
  StoreScan scan = store.scan(error);
  if (scan.torn_tail && !store.repair(error)) return std::nullopt;

  auto ledger = read_ledger(*job, id, store.path(), std::move(scan), error);
  if (!ledger) return std::nullopt;
  std::vector<std::uint8_t>& done = ledger->done;
  std::vector<json::Value>& payloads = ledger->payloads;
  bool& had_errors = ledger->had_errors;
  RunStats stats;
  stats.total_cells = job->cell_count();
  stats.already_done = ledger->done_cells;

  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < stats.total_cells; ++i) {
    if (done[i] == 0) pending.push_back(i);
  }

  const unsigned max_retries =
      options.max_retries != 0 ? options.max_retries : job->config.max_retries;
  std::vector<unsigned> attempts(stats.total_cells, 0);

  // Writing to a pipe whose worker died must surface as an error
  // return, not a fatal SIGPIPE.  Save/restore the disposition so the
  // service is embeddable (tests, leakctl) without global side effects.
  struct sigaction ignore_pipe{};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction saved_pipe{};
  ::sigaction(SIGPIPE, &ignore_pipe, &saved_pipe);

  std::vector<Worker> workers;
  unsigned consecutive_respawns = 0;
  std::string run_error;

  const auto sibling_fds = [&](std::size_t self) {
    std::vector<int> fds;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (i == self) continue;
      if (workers[i].task_fd >= 0) fds.push_back(workers[i].task_fd);
      if (workers[i].result_fd >= 0) fds.push_back(workers[i].result_fd);
    }
    return fds;
  };
  const auto spawn_slot = [&](std::size_t slot, unsigned generation) {
    WorkerOptions wopts;
    wopts.generation = generation;
    wopts.test_abort_after = options.test_worker_abort_after;
    std::string spawn_error;
    auto w = spawn_worker(*sc, *job, wopts, sibling_fds(slot), &spawn_error);
    if (!w) {
      run_error = "cannot spawn worker: " + spawn_error;
      return false;
    }
    workers[slot] = std::move(*w);
    return true;
  };
  const auto reap = [](Worker& w) {
    w.close_fds();
    if (w.pid > 0) {
      int wstatus = 0;
      while (::waitpid(w.pid, &wstatus, 0) < 0 && errno == EINTR) {
      }
      w.pid = -1;
    }
    w.in_flight.reset();
  };
  // Process one framed record line from a worker.  Returns false on a
  // fatal error (run_error set).
  const auto handle_line = [&](Worker& w, const std::string& line) {
    auto rec = ResultsStore::unframe(line);
    if (!rec) {
      run_error = "worker sent a corrupt record line";
      return false;
    }
    auto entry = validate_record(
        *job, id, json::Field(rec->payload(), "record"), &run_error);
    if (!entry) return false;
    if (!w.in_flight || *w.in_flight != entry->cell) {
      run_error = "worker answered cell " + std::to_string(entry->cell) +
                  " out of turn";
      return false;
    }
    if (!store.append_framed(*rec, options.fsync_records)) {
      run_error = store.path() + ": append failed";
      return false;
    }
    if (done[entry->cell] == 0) {
      done[entry->cell] = 1;
      had_errors = had_errors || entry->is_error;
      payloads[entry->cell] = std::move(rec->payload());
      ++stats.executed;
    }
    w.in_flight.reset();
    consecutive_respawns = 0;
    return true;
  };

  unsigned worker_count =
      options.workers != 0 ? options.workers : job->config.workers;
  worker_count = std::max(1u, worker_count);
  worker_count = static_cast<unsigned>(std::min<std::size_t>(
      worker_count, std::max<std::size_t>(1, pending.size())));
  workers.resize(worker_count);
  for (std::size_t slot = 0; slot < workers.size() && run_error.empty();
       ++slot) {
    if (!pending.empty() && !spawn_slot(slot, /*generation=*/0)) break;
  }

  while (run_error.empty()) {
    const bool budget_left =
        options.max_cells == 0 || stats.executed < options.max_cells;
    // Count every in-flight cell before assigning any new ones: the
    // budget check below must see the whole outstanding set, not just
    // the workers already visited in this pass.
    std::size_t in_flight = 0;
    std::size_t live = 0;
    for (const Worker& w : workers) {
      if (w.pid < 0) continue;
      ++live;
      if (w.in_flight) ++in_flight;
    }
    for (Worker& w : workers) {
      if (w.pid < 0 || w.in_flight || w.exiting) continue;
      std::size_t budget_room =
          options.max_cells == 0
              ? pending.size()
              : options.max_cells -
                    std::min<std::size_t>(options.max_cells,
                                          stats.executed + in_flight);
      if (!pending.empty() && budget_room > 0) {
        const std::size_t cell = pending.front();
        pending.pop_front();
        if (send_task(w, cell)) {
          ++in_flight;
        } else {
          // Dead pipe: the EOF path below reaps and retries.
          pending.push_front(cell);
        }
      } else if (!send_exit(w)) {
        w.exiting = true;  // dead pipe: EOF path reaps it
      }
    }
    if (in_flight == 0 && (pending.empty() || !budget_left)) break;
    if (live == 0) {
      // Work remains but every worker is gone (all spawns failed).
      if (run_error.empty()) run_error = "no live workers";
      break;
    }

    std::vector<pollfd> fds;
    std::vector<std::size_t> slot_of;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (workers[i].pid < 0 || workers[i].result_fd < 0) continue;
      fds.push_back(pollfd{workers[i].result_fd, POLLIN, 0});
      slot_of.push_back(i);
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      run_error = std::string("poll: ") + std::strerror(errno);
      break;
    }
    for (std::size_t k = 0; k < fds.size() && run_error.empty(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker& w = workers[slot_of[k]];
      char chunk[4096];
      const ssize_t n = ::read(w.result_fd, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        run_error = std::string("read: ") + std::strerror(errno);
        break;
      }
      if (n > 0) {
        w.buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl = 0;
        while ((nl = w.buf.find('\n')) != std::string::npos) {
          const std::string line = w.buf.substr(0, nl);
          w.buf.erase(0, nl + 1);
          if (!handle_line(w, line)) break;
        }
        continue;
      }
      // EOF: the worker is gone.
      const bool was_exiting = w.exiting;
      const std::optional<std::size_t> lost = w.in_flight;
      const unsigned generation = w.generation;
      reap(w);
      if (was_exiting) continue;
      if (lost) {
        if (++attempts[*lost] > max_retries) {
          run_error = "cell " + std::to_string(*lost) + " failed after " +
                      std::to_string(attempts[*lost]) + " attempts";
          break;
        }
        pending.push_front(*lost);
      }
      if (pending.empty()) continue;
      ++stats.respawns;
      ++consecutive_respawns;
      if (options.backoff_ms > 0) {
        const unsigned shift = std::min(consecutive_respawns - 1, 4u);
        const unsigned delay =
            std::min(options.backoff_ms << shift, 1000u);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      if (!spawn_slot(slot_of[k], generation + 1)) break;
    }
  }

  // Shut the pool down: EXIT every live worker, drain, reap.
  for (Worker& w : workers) {
    if (w.pid < 0) continue;
    if (!w.exiting) (void)send_exit(w);
  }
  for (Worker& w : workers) {
    if (w.pid < 0) continue;
    // Drain any record that raced the EXIT (none expected: EXIT is
    // only sent to idle workers, but be safe on error paths).
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(w.result_fd, chunk, sizeof chunk);
      if (n > 0) continue;
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    reap(w);
  }
  ::sigaction(SIGPIPE, &saved_pipe, nullptr);

  if (!run_error.empty()) {
    if (error != nullptr) *error = run_error;
    return std::nullopt;
  }

  const bool all_done =
      std::all_of(done.begin(), done.end(),
                  [](std::uint8_t d) { return d != 0; });
  if (all_done && !had_errors) {
    json::Array cells;
    cells.reserve(stats.total_cells);
    for (std::size_t i = 0; i < stats.total_cells; ++i) {
      cells.push_back(*payloads[i].find("result"));
    }
    json::Value merged_doc =
        scenario::sweep_document(job->scenario, job->axes, std::move(cells));
    merged_doc.set("job", id);
    if (!atomic_write(job_dir(id) + "/merged.json",
                      merged_doc.dump(2) + "\n")) {
      if (error != nullptr) {
        *error = job_dir(id) + "/merged.json: cannot write";
      }
      return std::nullopt;
    }
    stats.completed = true;
  } else if (all_done && had_errors && error != nullptr) {
    // Not a run failure — the store faithfully records the throwing
    // cells — but the job cannot merge.  Report which cells failed.
    std::string cells_list;
    for (std::size_t i = 0; i < stats.total_cells; ++i) {
      const json::Value* type = payloads[i].find("type");
      if (type != nullptr && type->as_string() == "error") {
        if (!cells_list.empty()) cells_list += ", ";
        cells_list += std::to_string(i);
      }
    }
    *error = "cells failed: " + cells_list;
  }
  return stats;
}

std::optional<json::Value> JobService::merged(const std::string& id,
                                              bool canonical,
                                              std::string* error) const {
  const std::string path = job_dir(id) + "/merged.json";
  auto doc = json::Value::load_file(path, error);
  if (!doc) {
    if (error != nullptr && !file_exists(path)) {
      *error = "job " + id + " has no merged result (not complete; " +
               "run `leakctl resume " + id + "`)";
    }
    return std::nullopt;
  }
  if (canonical) return canonicalize(std::move(*doc));
  return doc;
}

json::Value JobService::canonicalize(json::Value merged) {
  const json::Value* cells = merged.find("cells");
  if (cells == nullptr || !cells->is_array()) return merged;
  json::Value out_cells = json::Value::array();
  for (const json::Value& cell : cells->as_array()) {
    out_cells.push_back(zero_wall_ms(cell));
  }
  merged.set("cells", std::move(out_cells));
  return merged;
}

}  // namespace leak::serve
