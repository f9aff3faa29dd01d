// Batched, cache-friendly kernel for the Figure 8 bouncing-attack
// stake dynamics: advances a block of B independent paths in lockstep
// over epochs with structure-of-arrays state (contiguous stake[],
// score[] and four xoshiro256** lanes per path) and branchless floored
// score updates, so the per-epoch work is straight-line arithmetic over
// L1-resident arrays instead of one latency-bound dependency chain per
// path.  Each Bernoulli draw is decided on the raw 64-bit draw with the
// exact integer cut of bernoulli_cut (src/support/random.hpp), so no
// lane converts a draw to a double.
//
// Bit-identity contract: path i always draws from the (seed, i)
// counter stream (leak::StreamSeeder) and every floating-point
// operation a *live* path performs is the same op in the same order as
// the scalar reference kernel (tests/oracles/scalar_oracles.cpp), so
// the recorded snapshots are bit-identical to the oracle for every
// (block, threads) combination.  Ejected paths keep advancing their
// private RNG lane and (frozen-at-zero) stake so the block stays
// branch-free; those extra draws are unobservable — an ejected path's
// stake is exactly 0.0 and never leaves it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/analytic/config.hpp"
#include "src/support/random.hpp"

namespace leak::kernel {

/// Structure-of-arrays state for a block of lockstep paths.  One
/// instance is reused across the blocks a worker claims; reset()
/// re-seeds it for a new block without reallocating.
class BatchPaths {
 public:
  /// Seed paths [first_path, first_path + n_paths): stake at the
  /// initial stake, score 0, RNG lane i from stream first_path + i.
  void reset(const analytic::AnalyticConfig& model, const StreamSeeder& seeder,
             std::size_t first_path, std::size_t n_paths);

  /// Advance every path one epoch of the Figure 8 dynamics (Eq 2
  /// penalty with the previous score, one Bernoulli draw, Eq 1 floored
  /// score update, ejection flush to exactly 0).  One branchless loop:
  /// each lane draws, computes both score candidates and selects on
  /// the integer cut, so it auto-vectorizes.
  void step(const analytic::AnalyticConfig& model, double p0);

  [[nodiscard]] const std::vector<double>& stake() const { return stake_; }
  /// True when every path in the block has been ejected (stake frozen
  /// at exactly 0 <=> ejected): every later snapshot is
  /// deterministically 0.
  [[nodiscard]] bool all_ejected() const;

 private:
  std::vector<double> stake_;
  std::vector<double> score_;
  // xoshiro256** state, one SoA lane per word so adjacent paths'
  // generators advance with stride-1 loads.
  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
};

/// Simulate paths [first_path, first_path + n_paths) for `epochs`
/// epochs and record their stake at each snapshot epoch:
/// rows[k][first_path + i] receives the stake of path first_path + i
/// at snaps[k] (0.0 once ejected), so blocks write disjoint column
/// ranges of the caller's snapshots x paths matrix.  `snaps` must be
/// valid per run_bouncing_mc's grid contract (the drivers validate
/// before fanning out).  `scratch` is reset here; passing the same
/// instance across calls reuses its allocations.
void simulate_stake_block(const analytic::AnalyticConfig& model, double p0,
                          std::size_t epochs,
                          const std::vector<std::size_t>& snaps,
                          const StreamSeeder& seeder, std::size_t first_path,
                          std::size_t n_paths, BatchPaths& scratch,
                          double* const* rows);

}  // namespace leak::kernel
