#include "src/measure.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/crypto/sha256.hpp"

namespace perfbench {

namespace {

double seconds(const timespec& t) {
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double seconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

/// The `steal` column of /proc/stat's aggregate cpu line, in seconds.
double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  static const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  return n == 8 && tick > 0.0 ? static_cast<double>(v[7]) / tick : 0.0;
}

}  // namespace

double thread_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return seconds(t);
}

Stamp stamp() {
  Stamp s;
  s.steal_s = steal_s();
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  s.cpu_s = seconds(cpu) + seconds(children.ru_utime) +
            seconds(children.ru_stime);
  s.wall_s = now_s();
  return s;
}

double unstolen_s(const Stamp& a, const Stamp& b) {
  const double wall = b.wall_s - a.wall_s;
  const double cpu = b.cpu_s - a.cpu_s;
  const double steal = std::max(0.0, b.steal_s - a.steal_s);
  if (!(cpu > 0.0) || steal == 0.0) return wall;
  return wall * cpu / (cpu + steal);
}

double reference_loop_s() {
  // Integer ALU work with data-dependent branches over a 64 KiB array...
  std::vector<std::int64_t> a(8192, 3);
  // ...and 128-bit multiply-divide, as in the penalty engine's updates.
  std::vector<std::uint64_t> balances(1024);
  for (std::size_t i = 0; i < balances.size(); ++i) {
    balances[i] = 32'000'000'000ULL + i * 7919;
  }
  const double t0 = thread_cpu_s();
  std::uint64_t x = 88172645463325252ULL;
  std::int64_t sum = 0;
  for (int round = 0; round < 100; ++round) {
    for (std::int64_t& v : a) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if ((x & 3) == 0) {
        v -= v * 3 / 64 + 1;
      } else if ((x & 3) == 1) {
        v += 5;
      }
      sum += v;
    }
  }
  std::uint64_t score = 5;
  for (int round = 0; round < 1200; ++round) {
    for (std::uint64_t& b : balances) {
      const unsigned __int128 p = static_cast<unsigned __int128>(b) * score;
      b -= static_cast<std::uint64_t>(p / (4'194'304ULL + (b & 1023)));
      score = (score * 13 + 7) & 1023;
      if (b < 1'000'000'000ULL) b += 31'000'000'000ULL;
    }
  }
  const double dt = thread_cpu_s() - t0;
  volatile std::uint64_t sink = static_cast<std::uint64_t>(sum) + balances[7];
  (void)sink;
  return dt;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double fast_mean(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("fast_mean of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t k = std::max<std::size_t>(1, values.size() / 4);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += values[i];
  return sum / static_cast<double>(k);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.p50 = median(values);
  s.samples = values.size();
  std::sort(values.begin(), values.end());
  // Nearest rank r (1-based) is the P-th percentile for P = 100 r / n;
  // ten samples beyond it means r = n - 10.
  constexpr std::size_t kBeyond = 10;
  if (s.samples > kBeyond) {
    const std::size_t rank = s.samples - kBeyond;
    s.has_tail = true;
    s.tail = values[rank - 1];
    s.tail_pct = 100.0 * static_cast<double>(rank) /
                 static_cast<double>(s.samples);
  }
  return s;
}

double rate(double units, double seconds) {
  if (!(seconds > 0.0)) throw std::invalid_argument("rate over no time");
  return units / seconds;
}

std::size_t blocks_for(std::size_t paths, std::size_t block) {
  if (block == 0) throw std::invalid_argument("block size 0");
  return (paths + block - 1) / block;
}

Tracer::Scope::Scope(Tracer* tracer, std::string_view layer,
                     std::string_view name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.layer = std::string(layer);
  span.name = std::string(name);
  span.parent = tracer_->open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(tracer_->open_.back());
  index_ = tracer_->spans_.size();
  tracer_->open_.push_back(index_);
  span.start_s = now_s();
  tracer_->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = now_s();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double self = spans_[i].end_s - spans_[i].start_s - child_s[i];
    out[spans_[i].layer] += 1e3 * std::max(0.0, self);
  }
  return out;
}

json::Value Tracer::to_chrome(const std::string& run_id) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json::Value ev = json::Value::object();
    ev.set("name", s.name);
    ev.set("cat", s.layer);
    ev.set("ph", "X");
    ev.set("ts", 1e6 * (s.start_s - origin));
    ev.set("dur", 1e6 * (s.end_s - s.start_s));
    ev.set("pid", 1);
    ev.set("tid", 1);
    json::Value args = json::Value::object();
    args.set("id", static_cast<std::int64_t>(i));
    args.set("parent", s.parent);
    args.set("run", run_id);
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

json::Value canonical_result(const json::Value& result) {
  json::Value out = json::Value::object();
  for (const auto& [key, value] : result.as_object()) {
    if (key == "meta") continue;
    if (key == "params" && value.is_object()) {
      json::Value params = json::Value::object();
      for (const auto& [name, v] : value.as_object()) {
        if (name != "threads" && name != "block") params.set(name, v);
      }
      out.set(key, std::move(params));
      continue;
    }
    out.set(key, value);
  }
  return out;
}

std::string digest(std::string_view text) {
  return leak::crypto::to_hex(leak::crypto::sha256(text)).substr(0, 16);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

}  // namespace perfbench
