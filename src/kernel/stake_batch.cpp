// Compiled with vectorization-friendly flags (see src/CMakeLists.txt):
// -fno-trapping-math, -fopenmp-simd, -ffp-contract=off so no FMA
// contraction can creep in, and optionally -march=native, which widens
// the register tile below.  None of these change any computed value:
// every operation is still an IEEE double op in the same order for
// every lane, which is what the bit-identity tests against the scalar
// oracle enforce.  The lane step itself (xoshiro step, penalty, select,
// flush) is lane_step.hpp's, shared with the cohort run tile.
#include "src/kernel/stake_batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "src/kernel/lane_step.hpp"

namespace leak::kernel {

namespace {

using lanes::F64;
using lanes::kLanes;
using lanes::U64;

// Register tile: kGroups independent vectors of the target's widest
// kLanes lanes (8 with 512-bit vectors, 4 with AVX, 2 on baseline
// SSE2).  One group's epoch is a dependency chain through its stake
// (multiply, divide or multiply, subtract, compare, mask): about 30
// cycles with the division, fewer with the reciprocal.  Four groups
// are kept in flight.  With 32 vector registers the 24 state vectors
// stay resident; with 16 some RNG words spill to L1, off that chain,
// which still beats two unspilled groups, whose chains leave the units
// idle.  With the reciprocal, two groups measured level with four on
// long advances and three slower, while two are slower for a quotient
// that divides, so the tile stays at four.
constexpr std::size_t kGroups = 4;
constexpr std::size_t kTile = kLanes * kGroups;

}  // namespace

std::size_t BatchPaths::tile_lanes() { return kTile; }

void BatchPaths::reset(const analytic::AnalyticConfig& model,
                       const StreamSeeder& seeder, std::size_t first_path,
                       std::size_t n_paths) {
  // Padding lanes: stake 0 and score 0 (ejected), RNG words 0.
  const std::size_t padded = (n_paths + kTile - 1) / kTile * kTile;
  n_paths_ = n_paths;
  stake_.assign(padded, 0.0);
  score_.assign(padded, 0.0);
  s0_.assign(padded, 0);
  s1_.assign(padded, 0);
  s2_.assign(padded, 0);
  s3_.assign(padded, 0);
  std::fill_n(stake_.begin(), n_paths, model.initial_stake);
  for (std::size_t i = 0; i < n_paths; ++i) {
    // Exactly Rng's constructor: expand the stream seed through four
    // splitmix64 rounds into the xoshiro lanes.
    std::uint64_t sm = seeder.seed_for(first_path + i);
    s0_[i] = splitmix64(sm);
    s1_[i] = splitmix64(sm);
    s2_[i] = splitmix64(sm);
    s3_[i] = splitmix64(sm);
  }
}

double penalty_reciprocal(double quotient) {
  int exponent = 0;
  if (std::frexp(quotient, &exponent) != 0.5) return 0.0;
  // Exact: a power of two's reciprocal is one, unless it overflows
  // (a quotient below 2^-1023).
  const double reciprocal = 1.0 / quotient;
  return std::isfinite(reciprocal) ? reciprocal : 0.0;
}

void BatchPaths::advance(const analytic::AnalyticConfig& model, double p0,
                         std::size_t epochs) {
  const lanes::Dynamics<kLanes> dyn(model, p0);
  constexpr std::size_t kBytes = sizeof(F64);

  lanes::with_penalty(dyn, [&]<lanes::Penalty P>() {
    for (std::size_t base = 0; base < stake_.size(); base += kTile) {
      F64 stake[kGroups];
      F64 score[kGroups];
      U64 s0[kGroups];
      U64 s1[kGroups];
      U64 s2[kGroups];
      U64 s3[kGroups];
      for (std::size_t g = 0; g < kGroups; ++g) {
        const std::size_t at = base + g * kLanes;
        std::memcpy(&stake[g], &stake_[at], kBytes);
        std::memcpy(&score[g], &score_[at], kBytes);
        std::memcpy(&s0[g], &s0_[at], kBytes);
        std::memcpy(&s1[g], &s1_[at], kBytes);
        std::memcpy(&s2[g], &s2_[at], kBytes);
        std::memcpy(&s3[g], &s3_[at], kBytes);
      }
      for (std::size_t e = 0; e < epochs; ++e) {
        // Per group: one step of its RNG words, then the epoch on its
        // stake and score (lane_step.hpp).  An ejected or padding
        // lane's stake is exactly 0.0, so its (still advancing) RNG
        // lane is unobservable.
        for (std::size_t g = 0; g < kGroups; ++g) {
          U64 draw;
          lanes::next_draw(s0[g], s1[g], s2[g], s3[g], draw);
          lanes::update<P>(dyn, draw, stake[g], score[g]);
        }
      }
      for (std::size_t g = 0; g < kGroups; ++g) {
        const std::size_t at = base + g * kLanes;
        std::memcpy(&stake_[at], &stake[g], kBytes);
        std::memcpy(&score_[at], &score[g], kBytes);
        std::memcpy(&s0_[at], &s0[g], kBytes);
        std::memcpy(&s1_[at], &s1[g], kBytes);
        std::memcpy(&s2_[at], &s2[g], kBytes);
        std::memcpy(&s3_[at], &s3[g], kBytes);
      }
    }
  });
}

bool BatchPaths::all_ejected() const {
  // Ejection <=> stake flushed to exactly 0 (live stake always stays
  // above the positive ejection threshold; padding lanes hold 0).
  return std::all_of(stake_.begin(), stake_.end(),
                     [](double s) { return s == 0.0; });
}

void check_snapshot_grid(const std::vector<std::size_t>& snaps,
                         std::size_t epochs) {
  std::size_t prev = 0;
  for (const std::size_t t : snaps) {
    if (t <= prev || t > epochs) {
      throw std::invalid_argument(
          "snapshot grid: epochs must be strictly increasing within [1, " +
          std::to_string(epochs) + "], got " + std::to_string(t) +
          " after " + std::to_string(prev));
    }
    prev = t;
  }
}

void simulate_stake_block(const analytic::AnalyticConfig& model, double p0,
                          std::size_t epochs,
                          const std::vector<std::size_t>& snaps,
                          const StreamSeeder& seeder, std::size_t first_path,
                          std::size_t n_paths, BatchPaths& scratch,
                          double* const* rows) {
  check_snapshot_grid(snaps, epochs);
  scratch.reset(model, seeder, first_path, n_paths);
  std::size_t done = 0;
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    scratch.advance(model, p0, snaps[k] - done);
    done = snaps[k];
    std::copy_n(scratch.stake().data(), n_paths, rows[k] + first_path);
    // Once the whole block is ejected every later snapshot is 0 —
    // skip the remaining epochs (the scalar oracle records the same
    // zeros; this only shortcuts deterministically-dead work).
    if (k + 1 < snaps.size() && scratch.all_ejected()) {
      for (std::size_t j = k + 1; j < snaps.size(); ++j) {
        std::fill_n(rows[j] + first_path, n_paths, 0.0);
      }
      return;
    }
  }
}

}  // namespace leak::kernel
