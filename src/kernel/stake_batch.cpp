// Compiled with vectorization-friendly flags (see src/CMakeLists.txt):
// -fno-trapping-math so the selects below if-convert, -fopenmp-simd
// for the `omp simd` hints, -ffp-contract=off so no FMA contraction
// can creep in, and optionally -march=native.  None of these change
// any computed value: every operation is still an IEEE double op in
// the same order for every lane, which is what the bit-identity
// tests against the scalar oracle enforce.
#include "src/kernel/stake_batch.hpp"

#include <algorithm>
#include <bit>

namespace leak::kernel {

void BatchPaths::reset(const analytic::AnalyticConfig& model,
                       const StreamSeeder& seeder, std::size_t first_path,
                       std::size_t n_paths) {
  stake_.assign(n_paths, model.initial_stake);
  score_.assign(n_paths, 0.0);
  s0_.resize(n_paths);
  s1_.resize(n_paths);
  s2_.resize(n_paths);
  s3_.resize(n_paths);
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

void BatchPaths::step(const analytic::AnalyticConfig& model, double p0) {
  const double quotient = model.quotient;
  const double decrement = model.score_active_decrement;
  const double bias = model.score_bias;
  const double threshold = model.ejection_threshold;
  const std::int64_t cut = bernoulli_cut(p0);
  const std::size_t n = stake_.size();
  double* __restrict stake = stake_.data();
  double* __restrict score = score_.data();
  std::uint64_t* __restrict s0 = s0_.data();
  std::uint64_t* __restrict s1 = s1_.data();
  std::uint64_t* __restrict s2 = s2_.data();
  std::uint64_t* __restrict s3 = s3_.data();

  // Each lane advances its xoshiro256** state one step
  // (Rng::operator(); the two constant multiplies are shift-adds, so
  // the loop vectorizes without a packed 64-bit multiply, which is
  // AVX-512DQ-only), then takes the epoch in the scalar oracle's op
  // order: Eq 2 penalty with the previous score, Eq 1 floored score
  // update as a select of both candidates on the raw draw (exactly
  // uniform() < p0), ejection flush to exactly 0.0 as a select.  An
  // ejected path's stake is exactly 0.0, so the penalty and the flush
  // keep it there and its (still advancing) RNG lane is unobservable.
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t m5 = s1[i] + (s1[i] << 2);  // s1 * 5
    const std::uint64_t r7 = std::rotl(m5, 7);
    const std::uint64_t draw = r7 + (r7 << 3);  // rotl(s1*5,7) * 9
    const std::uint64_t t = s1[i] << 17;
    s2[i] ^= s0[i];
    s3[i] ^= s1[i];
    s1[i] ^= s2[i];
    s0[i] ^= s3[i];
    s2[i] ^= t;
    s3[i] = std::rotl(s3[i], 45);

    stake[i] -= score[i] * stake[i] / quotient;
    const double decremented = std::max(score[i] - decrement, 0.0);
    const double incremented = score[i] + bias;
    score[i] = bernoulli_select(draw, cut, decremented, incremented);
    stake[i] = stake[i] <= threshold ? 0.0 : stake[i];
  }
}

bool BatchPaths::all_ejected() const {
  // Ejection <=> stake flushed to exactly 0 (live stake always stays
  // above the positive ejection threshold).
  return std::all_of(stake_.begin(), stake_.end(),
                     [](double s) { return s == 0.0; });
}

void simulate_stake_block(const analytic::AnalyticConfig& model, double p0,
                          std::size_t epochs,
                          const std::vector<std::size_t>& snaps,
                          const StreamSeeder& seeder, std::size_t first_path,
                          std::size_t n_paths, BatchPaths& scratch,
                          double* const* rows) {
  scratch.reset(model, seeder, first_path, n_paths);
  std::size_t next_snap = 0;
  for (std::size_t t = 1; t <= epochs && next_snap < snaps.size(); ++t) {
    scratch.step(model, p0);
    if (t == snaps[next_snap]) {
      std::copy_n(scratch.stake().data(), n_paths,
                  rows[next_snap] + first_path);
      ++next_snap;
      // Once the whole block is ejected every later snapshot is 0 —
      // skip the remaining epochs (the scalar oracle records the same
      // zeros; this only shortcuts deterministically-dead work).
      if (next_snap < snaps.size() && scratch.all_ejected()) {
        for (std::size_t k = next_snap; k < snaps.size(); ++k) {
          std::fill_n(rows[k] + first_path, n_paths, 0.0);
        }
        return;
      }
    }
  }
}

}  // namespace leak::kernel
