#include "src/serve/worker.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/serve/store.hpp"
#include "src/support/crc32.hpp"
#include "src/support/parse.hpp"

namespace leak::serve {

namespace {

/// Blocking single-line read (task lines are a few bytes; the
/// byte-at-a-time read is irrelevant next to a multi-ms cell run).
[[nodiscard]] bool read_line(int fd, std::string* line) {
  line->clear();
  for (;;) {
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF: parent is gone
    if (c == '\n') return true;
    line->push_back(c);
  }
}

/// Child main: serve task lines until EXIT/EOF, then _exit.
[[noreturn]] void run_worker_loop(const scenario::Scenario& sc,
                                  const JobSpec& job,
                                  const WorkerOptions& options, int task_fd,
                                  int result_fd) {
  std::string line;
  unsigned completed = 0;
  while (read_line(task_fd, &line)) {
    if (line == "EXIT") break;
    if (line.rfind("RUN ", 0) != 0) break;  // protocol error: bail out
    const auto index = parse::u64(std::string_view(line).substr(4));
    if (!index || *index >= job.cell_count()) break;
    if (options.test_abort_after > 0 && options.generation == 0 &&
        completed >= options.test_abort_after) {
      ::_exit(42);  // simulated crash: the in-flight cell is lost
    }
    json::Value payload;
    try {
      const scenario::ScenarioResult result =
          sc.run(job.cell_params(*index));
      payload = cell_record(job, *index, result);
    } catch (const std::exception& e) {
      payload = error_record(job, *index, e.what());
    }
    if (!write_all(result_fd, ResultsStore::frame(payload) + "\n")) break;
    ++completed;
  }
  ::_exit(0);
}

}  // namespace

void Worker::close_fds() {
  if (task_fd >= 0) ::close(task_fd);
  if (result_fd >= 0) ::close(result_fd);
  task_fd = -1;
  result_fd = -1;
}

std::optional<Worker> spawn_worker(const scenario::Scenario& sc,
                                   const JobSpec& job,
                                   const WorkerOptions& options,
                                   const std::vector<int>& close_in_child,
                                   std::string* error) {
  int task_pipe[2] = {-1, -1};    // [0] child reads, [1] parent writes
  int result_pipe[2] = {-1, -1};  // [0] parent reads, [1] child writes
  if (::pipe(task_pipe) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return std::nullopt;
  }
  if (::pipe(result_pipe) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(task_pipe[0]);
    ::close(task_pipe[1]);
    return std::nullopt;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    for (const int fd : {task_pipe[0], task_pipe[1], result_pipe[0],
                         result_pipe[1]}) {
      ::close(fd);
    }
    return std::nullopt;
  }
  if (pid == 0) {
    // Child: drop the parent-side ends and every sibling fd, so a
    // sibling can't hold this worker's pipes open past its death.
    ::close(task_pipe[1]);
    ::close(result_pipe[0]);
    for (const int fd : close_in_child) {
      if (fd >= 0) ::close(fd);
    }
    run_worker_loop(sc, job, options, task_pipe[0], result_pipe[1]);
  }
  // Parent.
  ::close(task_pipe[0]);
  ::close(result_pipe[1]);
  Worker w;
  w.pid = pid;
  w.task_fd = task_pipe[1];
  w.result_fd = result_pipe[0];
  w.generation = options.generation;
  return w;
}

bool send_task(Worker& worker, std::size_t cell) {
  if (!write_all(worker.task_fd, "RUN " + std::to_string(cell) + "\n")) {
    return false;
  }
  worker.in_flight = cell;
  return true;
}

bool send_exit(Worker& worker) {
  worker.exiting = true;
  return write_all(worker.task_fd, "EXIT\n");
}

json::Value cell_record(const JobSpec& job, std::size_t index,
                        const scenario::ScenarioResult& result) {
  json::Value doc = json::Value::object();
  doc.set("type", "cell");
  doc.set("job", job.id());
  doc.set("cell", static_cast<std::int64_t>(index));
  doc.set("fp", crc32::to_hex(job.cell_fingerprint(index)));
  doc.set("result", result.to_json());
  return doc;
}

json::Value error_record(const JobSpec& job, std::size_t index,
                         const std::string& what) {
  json::Value doc = json::Value::object();
  doc.set("type", "error");
  doc.set("job", job.id());
  doc.set("cell", static_cast<std::int64_t>(index));
  doc.set("what", what);
  return doc;
}

}  // namespace leak::serve
