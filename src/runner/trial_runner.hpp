// Deterministic fan-out of N independent Monte Carlo trials across a
// chunked thread pool.
//
// Contract: the trial function must be pure given its trial index —
// all randomness comes from a per-trial RNG stream derived from
// (master_seed, trial_index) (see leak::StreamSeeder), and trials
// never touch shared mutable state.  Results are collected into a
// vector indexed by trial, so any merge the caller performs in trial
// order is bit-identical regardless of thread count (including
// threads == 1).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/runner/thread_pool.hpp"

namespace leak::runner {

class TrialRunner {
 public:
  /// threads == 0 resolves via LEAK_THREADS / hardware_concurrency.
  explicit TrialRunner(unsigned threads = 0)
      : threads_(resolve_threads(threads)) {}

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run fn(i) for i in [0, n_trials); return the results in trial
  /// order.  If any trial throws, the exception with the lowest trial
  /// index among those observed is rethrown after the pool drains (no
  /// deadlock, no detached work left behind).
  template <typename Fn>
  [[nodiscard]] auto run(std::size_t n_trials, Fn&& fn) const {
    using Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    static_assert(std::is_default_constructible_v<Result>,
                  "trial results are collected into a pre-sized vector");
    static_assert(!std::is_same_v<Result, bool>,
                  "bool trials would race on std::vector<bool>'s packed "
                  "words; return std::uint8_t instead");
    std::vector<Result> results(n_trials);
    if (n_trials == 0) return results;

    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, n_trials));
    if (workers <= 1) {
      for (std::size_t i = 0; i < n_trials; ++i) results[i] = fn(i);
      return results;
    }

    // Chunked dynamic scheduling: workers claim fixed-size index
    // ranges from a shared cursor.  Chunks amortise the atomic per
    // claim while staying small enough to balance uneven trials.
    const std::size_t chunk = std::max<std::size_t>(
        1, n_trials / (static_cast<std::size_t>(workers) * 8));
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    std::exception_ptr first_error;
    std::size_t first_error_trial = std::numeric_limits<std::size_t>::max();

    ThreadPool pool(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.submit([&] {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t begin =
              cursor.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= n_trials) return;
          const std::size_t end = std::min(begin + chunk, n_trials);
          for (std::size_t i = begin; i < end; ++i) {
            try {
              results[i] = fn(i);
            } catch (...) {
              std::scoped_lock lk(err_mu);
              if (i < first_error_trial) {
                first_error_trial = i;
                first_error = std::current_exception();
              }
              failed.store(true, std::memory_order_relaxed);
              break;
            }
          }
        }
      });
    }
    pool.wait_idle();
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  /// Block-scheduled fan-out into caller-preallocated output slabs:
  /// run fn(begin, end) for each fixed-size block of [0, n_trials)
  /// (block b covers [b*block, min((b+1)*block, n_trials))).  fn
  /// writes each trial's outputs at its global index into slabs the
  /// caller sized up front, so there is no merge step and no per-trial
  /// allocation; because trial i's randomness comes from the
  /// (master_seed, i) stream, the result is bit-identical for every
  /// (block, threads) combination.  If any block throws, the exception
  /// from the lowest block among those observed is rethrown after the
  /// pool drains.
  template <typename Fn>
  void run_blocks(std::size_t n_trials, std::size_t block, Fn&& fn) const {
    if (n_trials == 0) return;
    block = std::clamp<std::size_t>(block, 1, n_trials);
    const std::size_t n_blocks = (n_trials + block - 1) / block;
    const auto workers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, n_blocks));
    if (workers <= 1) {
      for (std::size_t begin = 0; begin < n_trials; begin += block) {
        fn(begin, std::min(begin + block, n_trials));
      }
      return;
    }
    std::mutex err_mu;
    std::exception_ptr first_error;
    std::size_t first_error_begin = std::numeric_limits<std::size_t>::max();
    ThreadPool pool(workers);
    pool.run_blocks(n_trials, block,
                    [&](std::size_t begin, std::size_t end) -> bool {
                      try {
                        fn(begin, end);
                        return true;
                      } catch (...) {
                        std::scoped_lock lk(err_mu);
                        if (begin < first_error_begin) {
                          first_error_begin = begin;
                          first_error = std::current_exception();
                        }
                        return false;
                      }
                    });
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Ordered reduction tree over fixed-size blocks: sim(begin, end)
  /// produces one partial per block concurrently, and the partials
  /// fold into `acc` via acc.fold(begin, end, partial) strictly in
  /// ascending block order — a left-deep tree whose merge order is a
  /// function of (n_trials, block) alone, never of thread scheduling
  /// or completion order.  This is what lets keep_paths=false summary
  /// reductions scale past one thread while staying bit-identical to
  /// the serial fold (and to full mode, when the accumulator is the
  /// same code fed the same per-trial values in the same order).  A
  /// worker holds at most one unfolded partial, so in-flight memory is
  /// bounded by O(threads x sizeof(partial)).  Exceptions cancel
  /// unclaimed blocks; the one from the lowest block rethrows.
  template <typename Acc, typename SimFn>
  [[nodiscard]] Acc run_reduce(std::size_t n_trials, std::size_t block,
                               Acc acc, SimFn&& sim) const {
    using Partial =
        std::decay_t<std::invoke_result_t<SimFn&, std::size_t, std::size_t>>;
    if (n_trials == 0) return acc;
    block = std::clamp<std::size_t>(block, 1, n_trials);
    const std::size_t n_blocks = (n_trials + block - 1) / block;
    const auto workers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, n_blocks));
    if (workers <= 1) {
      for (std::size_t begin = 0; begin < n_trials; begin += block) {
        const std::size_t end = std::min(begin + block, n_trials);
        acc.fold(begin, end, sim(begin, end));
      }
      return acc;
    }
    std::mutex mu;  // guards the fold turn and the error bookkeeping
    std::condition_variable turn_cv;
    std::size_t fold_turn = 0;
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::size_t first_error_block = std::numeric_limits<std::size_t>::max();
    const auto record_error = [&](std::size_t b) {
      std::scoped_lock lk(mu);
      if (b < first_error_block) {
        first_error_block = b;
        first_error = std::current_exception();
      }
      failed.store(true, std::memory_order_relaxed);
    };
    ThreadPool pool(workers);
    pool.run_blocks(
        n_trials, block, [&](std::size_t begin, std::size_t end) -> bool {
          const std::size_t b = begin / block;
          std::optional<Partial> partial;
          if (!failed.load(std::memory_order_relaxed)) {
            try {
              partial.emplace(sim(begin, end));
            } catch (...) {
              record_error(b);
            }
          }
          {
            // Take the fold turn even on failure so later blocks
            // waiting on it are released (no deadlock on error).
            std::unique_lock lk(mu);
            turn_cv.wait(lk, [&] { return fold_turn == b; });
            if (partial.has_value() &&
                !failed.load(std::memory_order_relaxed)) {
              try {
                acc.fold(begin, end, std::move(*partial));
              } catch (...) {
                lk.unlock();
                record_error(b);
                lk.lock();
              }
            }
            ++fold_turn;
          }
          turn_cv.notify_all();
          return !failed.load(std::memory_order_relaxed);
        });
    if (first_error) std::rethrow_exception(first_error);
    return acc;
  }

 private:
  unsigned threads_;
};

}  // namespace leak::runner
