// Compiled with the same vectorization-friendly flags as the batch
// kernel (src/CMakeLists.txt); none of them change any computed value.
// The draw pass (and the stake sum it carries) stays serial on purpose:
// it consumes and accumulates in an order the bit-identity contract
// fixes.
#include "src/kernel/cohort.hpp"

#include <algorithm>

namespace leak::kernel {

void LeakCohort::reset(std::size_t n, const analytic::AnalyticConfig& model) {
  stake_.assign(n, model.initial_stake);
  score_.assign(n, 0.0);
  draw_.assign(n, 0);
}

double LeakCohort::draw(Rng& rng) {
  // The stream is copied to a local for the pass and written back once,
  // so its four words stay in registers instead of round-tripping
  // through `rng` on every lane.  The stake sum rides the same pass:
  // its add chain and the xoshiro chain are independent, so they
  // overlap.  A lane is live while its stake is nonzero: ejection
  // flushes it to exactly 0.0, and a live stake stays above the
  // positive threshold.
  Rng stream = rng;
  const std::size_t n = stake_.size();
  const double* __restrict stake = stake_.data();
  std::uint64_t* __restrict draw = draw_.data();
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += stake[i];
    if (stake[i] != 0.0) draw[i] = stream();
  }
  rng = stream;
  return total;
}

void LeakCohort::update(const analytic::AnalyticConfig& model, double p0) {
  // One epoch over every lane: Eq 2 penalty with the previous score,
  // Eq 1 floored score update as a select of both candidates (the
  // Bernoulli draw as the integer cut, exactly uniform() < p0), ejection
  // flush to exactly 0.0 as a select.
  const std::size_t n = stake_.size();
  double* __restrict stake = stake_.data();
  double* __restrict score = score_.data();
  const std::uint64_t* __restrict draw = draw_.data();
  const double quotient = model.quotient;
  const double decrement = model.score_active_decrement;
  const double bias = model.score_bias;
  const double threshold = model.ejection_threshold;
  const std::int64_t cut = bernoulli_cut(p0);
  // Same op order as the scalar oracle for live lanes; ejected lanes
  // ride along branch-free (stake frozen at exactly +0.0, dead score
  // lane fed by a stale draw — both unobservable).
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    stake[i] -= score[i] * stake[i] / quotient;
    const double decremented = std::max(score[i] - decrement, 0.0);
    const double incremented = score[i] + bias;
    score[i] = bernoulli_select(draw[i], cut, decremented, incremented);
    stake[i] = stake[i] <= threshold ? 0.0 : stake[i];
  }
}

double LeakCohort::stake_sum() const {
  // Ascending index order, exactly the scalar oracle's accumulation
  // (floating-point addition is order-sensitive; no reassociation).
  double total = 0.0;
  for (const double s : stake_) total += s;
  return total;
}

}  // namespace leak::kernel
