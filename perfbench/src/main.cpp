// perfbench: run one workload of the repository benchmark and print its
// result as one JSON line (see perfbench/README.md).  perfbench/run.py
// builds this binary, pins the environment and adds provenance.
//
//   perfbench --workload slot|partition|montecarlo|jobs --seed N
//             --seconds S --trace 0|1 --threads T --work-dir DIR
//             [--golden FILE] [--trace-file FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "src/bench.hpp"

namespace {

using perfbench::json::Value;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t to_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return v;
}

Value summary_json(const perfbench::Metric& m) {
  Value s = Value::object();
  s.set("p50", m.summary.p50);
  if (m.summary.has_tail) {
    s.set("tail", m.summary.tail);
    s.set("tail_pct", m.summary.tail_pct);
  }
  s.set("samples", static_cast<std::int64_t>(m.summary.samples));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = to_u64(flag, value);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(to_u64(flag, value));
    } else if (flag == "--trace") {
      opt.trace = to_u64(flag, value) != 0;
    } else if (flag == "--threads") {
      opt.threads = static_cast<unsigned>(to_u64(flag, value));
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--golden") {
      opt.golden_path = value;
    } else if (flag == "--trace-file") {
      opt.trace_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (perfbench::find_workload(opt.workload) == nullptr) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.threads == 0 || opt.work_dir.empty()) {
    usage("--threads and --work-dir are required");
  }

  Value doc = Value::object();
  try {
    const perfbench::Outcome out = perfbench::run_workload(opt);
    Value metrics = Value::object();
    for (const perfbench::Metric& m : out.metrics) {
      Value one = Value::object();
      one.set("value", m.value);
      one.set("unit", m.unit);
      if (m.timed) one.set("summary", summary_json(m));
      if (!m.note.empty()) one.set("note", m.note);
      metrics.set(m.name, std::move(one));
    }
    Value failures = Value::array();
    for (const std::string& msg : out.check.messages()) failures.push_back(msg);
    doc.set("correct", out.check.failed() == 0);
    doc.set("attempted", static_cast<std::int64_t>(out.check.attempted()));
    doc.set("failed", static_cast<std::int64_t>(out.check.failed()));
    doc.set("metrics", std::move(metrics));
    doc.set("failures", std::move(failures));
    doc.set("digests", out.digests);
    doc.set("self_ms", out.self_ms);
    doc.set("cell_s", out.cell_s);
    Value reference = Value::array();
    for (const double r : out.reference_s) reference.push_back(r);
    doc.set("reference_s", std::move(reference));
    doc.set("reference_nominal_s", perfbench::kReferenceS);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}
