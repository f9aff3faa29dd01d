// Batched, cache-friendly kernel for the Figure 8 bouncing-attack
// stake dynamics: advances a block of B independent paths in lockstep
// over epochs with structure-of-arrays state (contiguous stake[],
// score[] and four xoshiro256** lanes per path) and branchless floored
// score updates.  Each Bernoulli draw is decided on the raw 64-bit draw
// with the exact integer cut of bernoulli_cut (src/support/random.hpp),
// so no lane converts a draw to a double.
//
// Epoch-inner register tiles: advance() walks the lanes in tiles, loads
// a tile's six state words per lane (stake, score, four xoshiro words)
// into local vectors, runs every requested epoch on them and stores the
// tile once, so the per-epoch work touches registers only.  A tile is
// four groups of the target's widest vectors: 32 lanes with 512-bit
// vectors (6 x 4 = 24 of its 32 vector registers), 16 with AVX and 8 on
// baseline SSE2, where some RNG words spill (see stake_batch.cpp).  The
// lane arrays are padded to a whole tile with stake 0 and score 0.  A
// padding lane stays exactly 0, like an ejected one, so it never keeps
// all_ejected() false; stake() hides it.  The Eq 2 penalty
// multiplies by the quotient's reciprocal when the quotient is a power
// of two (penalty_reciprocal below: the paper's 2^26, mainnet's 2^24)
// and divides otherwise (Altair's 3 * 2^24), so no lane leaves the
// scalar oracle's division by a bit.
//
// Bit-identity contract: path i always draws from the (seed, i)
// counter stream (leak::StreamSeeder) and every floating-point
// operation a *live* path performs is the same op in the same order as
// the scalar reference kernel (tests/oracles/scalar_oracles.cpp), so
// the recorded snapshots are bit-identical to the oracle for every
// (block, threads) combination and every tile width.  Ejected paths
// keep advancing their private RNG lane and (frozen-at-zero) stake so
// the block stays branch-free; those extra draws are unobservable — an
// ejected path's stake is exactly 0.0 and never leaves it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

  /// Advance every path `epochs` epochs of the Figure 8 dynamics, each
  /// epoch in the scalar oracle's op order: one Bernoulli draw, Eq 2
  /// penalty with the previous score, Eq 1 floored score update (a
  /// select of both candidates on the integer cut), ejection flush to
  /// exactly 0.  Each lane tile stays in registers for all `epochs`.
  void advance(const analytic::AnalyticConfig& model, double p0,
               std::size_t epochs);
  void step(const analytic::AnalyticConfig& model, double p0) {
    advance(model, p0, 1);
  }

  /// Stake of the block's paths (padding lanes excluded).
  [[nodiscard]] std::span<const double> stake() const {
    return {stake_.data(), n_paths_};
  }
  /// True when every path in the block has been ejected (stake frozen
  /// at exactly 0 <=> ejected): every later snapshot is
  /// deterministically 0.
  [[nodiscard]] bool all_ejected() const;
  /// Lanes per register tile on the target this kernel was built for.
  [[nodiscard]] static std::size_t tile_lanes();

  /// Equal state: stake, score and RNG words of every lane, padding
  /// included.
  bool operator==(const BatchPaths&) const = default;

 private:
  std::size_t n_paths_ = 0;
  // Lane arrays padded to a whole tile (see the file comment).
  std::vector<double> stake_;
  std::vector<double> score_;
  // xoshiro256** state, one SoA lane per word so adjacent paths'
  // generators advance with stride-1 loads.
  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
};

/// The Eq 2 penalty's multiplier: 1 / quotient when the quotient is a
/// power of two (std::frexp gives 0.5) whose reciprocal is a finite
/// double, else 0.0.  For such a quotient x / quotient and
/// x * (1 / quotient) are the same real number, which IEEE 754 rounds
/// to the same double, so the kernels multiply by it; for any other
/// quotient they keep the division.
[[nodiscard]] double penalty_reciprocal(double quotient);

/// Throws std::invalid_argument unless `snaps` is a strictly increasing
/// grid of epochs in [1, epochs] (an epoch's stake is recorded at its
/// end, so epoch 0 is never one).  An empty grid passes.
void check_snapshot_grid(const std::vector<std::size_t>& snaps,
                         std::size_t epochs);

/// Simulate paths [first_path, first_path + n_paths) for `epochs`
/// epochs and record their stake at each snapshot epoch:
/// rows[k][first_path + i] receives the stake of path first_path + i
/// at snaps[k] (0.0 once ejected), so blocks write disjoint column
/// ranges of the caller's snapshots x paths matrix.  The block advances
/// from snapshot to snapshot and stops early, writing zeros, once every
/// path is ejected at a snapshot.  Throws std::invalid_argument unless
/// check_snapshot_grid accepts `snaps`.  `scratch` is reset here;
/// passing the same instance across calls reuses its allocations.
void simulate_stake_block(const analytic::AnalyticConfig& model, double p0,
                          std::size_t epochs,
                          const std::vector<std::size_t>& snaps,
                          const StreamSeeder& seeder, std::size_t first_path,
                          std::size_t n_paths, BatchPaths& scratch,
                          double* const* rows);

}  // namespace leak::kernel
