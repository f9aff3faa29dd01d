// Deterministic fan-out of N independent Monte Carlo trials across
// block-claiming workers; every driver passes its `block` knob
// straight through, so block 0 is claim_blocks' one auto size.
//
// Contract: the trial function must be pure given its trial index —
// all randomness comes from a per-trial RNG stream derived from
// (master_seed, trial_index) (see leak::StreamSeeder), and trials
// never touch shared mutable state.  Results land in slabs indexed by
// trial, and every caller folds them in trial order on its own thread
// once the workers are joined (there is no concurrent reduction), so
// every aggregate is bit-identical regardless of thread count
// (including threads == 1).
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
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
  /// order.  Trials run through run_blocks at the auto block (0).  If
  /// any trial throws, the exception of the lowest failing block (the
  /// first throwing trial in it) is rethrown once the workers are
  /// joined.
  template <typename Fn>
  [[nodiscard]] auto run(std::size_t n_trials, Fn&& fn) const {
    using Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    static_assert(std::is_default_constructible_v<Result>,
                  "trial results are collected into a pre-sized vector");
    static_assert(!std::is_same_v<Result, bool>,
                  "bool trials would race on std::vector<bool>'s packed "
                  "words; return std::uint8_t instead");
    std::vector<Result> results(n_trials);
    run_blocks(n_trials, 0, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) results[i] = fn(i);
    });
    return results;
  }

  /// Block-scheduled fan-out into caller-preallocated output slabs:
  /// run fn(begin, end) for each fixed-size block of [0, n_trials)
  /// (block b covers [b*block, min((b+1)*block, n_trials)); 0 is the
  /// auto block that spreads a short cell over every worker).  fn
  /// writes each trial's outputs at its global index into slabs the
  /// caller sized up front, so there is no merge step and no per-trial
  /// allocation; because trial i's randomness comes from the
  /// (master_seed, i) stream, the result is bit-identical for every
  /// (block, threads) combination.  A block is whole granules of
  /// trials (every begin a multiple of `granule`), for drivers that
  /// play trials a vector of lanes at a time.  Scheduling and failure
  /// semantics are claim_blocks' (src/runner/thread_pool.hpp): the
  /// exception from the lowest failing block is rethrown after the
  /// workers join.
  template <typename Fn>
  void run_blocks(std::size_t n_trials, std::size_t block, Fn&& fn,
                  std::size_t granule = 1) const {
    claim_blocks(threads_, n_trials, block, std::ref(fn), granule);
  }

 private:
  unsigned threads_;
};

}  // namespace leak::runner
