// Measurement primitives shared by the benchmark binary and its
// self-test: a steady clock, per-call sample summaries, the span
// tracer that writes Chrome trace-event JSON, and the canonical result
// digest the correctness checks compare.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/json.hpp"

namespace perfbench {

namespace json = leak::json;

/// Seconds on the steady clock since an arbitrary origin.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// This thread's CPU time in seconds.  Time the host spends running
/// other tenants on this vCPU ("steal") is not in it.
[[nodiscard]] double thread_cpu_s();

/// A reading of the clocks a timed interval is measured with.
struct Stamp {
  double wall_s = 0.0;   ///< steady clock
  double cpu_s = 0.0;    ///< this process's and its reaped children's CPU time
  double steal_s = 0.0;  ///< steal over all CPUs (/proc/stat; 0 if absent)
};

[[nodiscard]] Stamp stamp();

/// Wall time from `a` to `b` with the host's steal taken out: the wall
/// time scaled by cpu / (cpu + steal) over the interval.  On a shared
/// virtual machine the host preempts vCPUs for tens of milliseconds at
/// a time; that time shows in the wall clock, not in the CPU clocks.
/// A run on one thread
/// reads its CPU time; a run on k busy threads reads about its wall time
/// had no vCPU been preempted.  Equals the wall time when the machine
/// reports no steal.
[[nodiscard]] double unstolen_s(const Stamp& a, const Stamp& b);

/// The host-speed reference: a fixed integer loop (xorshift draws
/// driving data-dependent updates of a 64 KiB array, then 128-bit
/// multiply-divide updates of 1024 balances, about half the time each),
/// returning its duration on this thread's CPU clock.  It is timed beside the
/// workload's cells, and every timed figure is scaled by
/// kReferenceS / (the reference's median time over the same pass), so
/// figures read as on a host that runs the loop in kReferenceS.  On a
/// shared host, contention from other tenants slows all code for spells
/// of minutes; the loop slows with it, the program's own speed does not
/// move it.
[[nodiscard]] double reference_loop_s();

/// About the reference loop's time on the 4-vCPU Xeon host the benchmark
/// was tuned on, in a quiet spell.  It only sets the scale of the figures.
inline constexpr double kReferenceS = 0.012;

/// A timing distribution: the median, and the highest percentile that
/// still has at least ten samples beyond it (nearest rank; absent when
/// there are ten samples or fewer), with the sample count.
struct Summary {
  double p50 = 0.0;
  bool has_tail = false;
  double tail = 0.0;      ///< value at the tail percentile
  double tail_pct = 0.0;  ///< which percentile `tail` is
  std::size_t samples = 0;
};

/// Summarize `values`; throws std::invalid_argument when empty.
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Median of `values`; throws std::invalid_argument when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Mean of the fastest quarter of `values` (at least one sample); throws
/// std::invalid_argument when empty.  The timed end-to-end figures use
/// it: contention from other tenants of a shared host only ever slows a
/// sample, so the fastest quarter of a run's repeats tracks the program
/// while their median follows whichever repeats it hit.
[[nodiscard]] double fast_mean(std::vector<double> values);

/// Throughput arithmetic shared by every simulation workload:
/// work units (trials or cells) over the sum of per-cell times.
[[nodiscard]] double rate(double units, double seconds);

/// ceil(paths / block): the runner blocks one cell's trials occupy.
[[nodiscard]] std::size_t blocks_for(std::size_t paths, std::size_t block);

/// Span recorder.  Spans nest through RAII scopes opened on one thread;
/// a disabled tracer records nothing.  Spans stay in memory until
/// write_chrome().
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for roots
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view layer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  ///< null when tracing is off
    std::size_t index_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Scope span(std::string_view layer, std::string_view name) {
    return Scope(enabled_ ? this : nullptr, layer, name);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per layer: total span time minus the time its direct child spans
  /// cover, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds); the
  /// run id tags every event so traces of several runs can be merged.
  [[nodiscard]] json::Value to_chrome(const std::string& run_id) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// A scenario result's canonical form: the `meta` block and the
/// `threads`/`block` knob echoes are dropped (they may differ between
/// runs that must agree); everything else is kept in order.
[[nodiscard]] json::Value canonical_result(const json::Value& result);

/// First 16 hex digits of SHA-256 over `text`.
[[nodiscard]] std::string digest(std::string_view text);

/// The benchmark's own child-process-inclusive peak resident set, MiB:
/// the larger of this process's peak and its largest reaped child's.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
