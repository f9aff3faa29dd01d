// Compiled with the same vectorization-friendly flags as the batch
// kernel (src/CMakeLists.txt); none of them change any computed value.
// CohortTile's lanes are whole runs, so each lane's stream and stake
// sum stay serial in the order the bit-identity contract fixes while
// the vector spans the runs.  LeakCohort's draw pass (and the stake sum
// it carries) is serial across one run's validators.
#include "src/kernel/cohort.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/kernel/lane_step.hpp"

namespace leak::kernel {

namespace {

/// The narrowest tile: 256 bits where the target has them, else 128
/// (never one lane: GCC reads a one-element vector as its scalar).  A
/// validator step is the same few dozen vector instructions at any
/// width, so a 128-bit tile costs what a 256-bit one does (905 vs 833
/// ns per 200-validator epoch on an AVX-512 Xeon) and 256 bits is the
/// cheapest step; a 512-bit one costs 1.85x that for twice the lanes.
constexpr std::size_t kMinLanes = std::min<std::size_t>(4, lanes::kLanes);

/// fn.template operator()<W>() for the tile width W == lanes (a power
/// of two in [kMinLanes, lanes::kLanes]): each width is its own vector
/// type.
template <std::size_t W = lanes::kLanes, typename Fn>
void with_lanes(std::size_t lanes, const Fn& fn) {
  if constexpr (W > kMinLanes) {
    if (lanes < W) return with_lanes<W / 2>(lanes, fn);
  }
  fn.template operator()<W>();
}

}  // namespace

std::size_t CohortTile::max_lanes() { return lanes::kLanes; }

std::size_t CohortTile::lanes_for(std::size_t runs) {
  return std::bit_ceil(
      std::clamp<std::size_t>(runs, kMinLanes, lanes::kLanes));
}

void CohortTile::reset(std::size_t n, std::size_t lanes,
                       const analytic::AnalyticConfig& model) {
  n_ = n;
  lanes_ = lanes;
  initial_stake_ = model.initial_stake;
  stake_.assign(n * lanes, 0.0);
  score_.assign(n * lanes, 0.0);
  stream_.assign(4 * lanes, 0);
}

void CohortTile::start(std::size_t lane, std::uint64_t seed) {
  for (std::size_t v = 0; v < n_; ++v) {
    stake_[v * lanes_ + lane] = initial_stake_;
    score_[v * lanes_ + lane] = 0.0;
  }
  // Exactly Rng's constructor: four splitmix64 rounds of the seed.
  for (std::size_t w = 0; w < 4; ++w) {
    stream_[w * lanes_ + lane] = splitmix64(seed);
  }
}

void CohortTile::stop(std::size_t lane) {
  for (std::size_t v = 0; v < n_; ++v) stake_[v * lanes_ + lane] = 0.0;
}

void CohortTile::draw(std::uint64_t* out) {
  with_lanes(lanes_, [&]<std::size_t W>() {
    using U = typename lanes::Lanes<W>::U;
    U s[4];
    std::memcpy(s, stream_.data(), sizeof s);
    U draw;
    lanes::next_draw(s[0], s[1], s[2], s[3], draw);
    std::memcpy(stream_.data(), s, sizeof s);
    std::memcpy(out, &draw, sizeof draw);
  });
}

void CohortTile::epoch(const analytic::AnalyticConfig& model, double p0,
                       double* sums) {
  // The lanes' streams stay in registers for the whole pass.  Per
  // validator: the sum takes the stake as it stands, a live lane
  // (stake != 0) takes its next draw while an ejected or idle one
  // keeps its stream where it was, and the lane step updates stake and
  // score in place.  The sum and the streams are the only chains
  // carried from validator to validator.
  with_lanes(lanes_, [&]<std::size_t W>() {
    using U = typename lanes::Lanes<W>::U;
    using F = typename lanes::Lanes<W>::F;
    constexpr std::size_t kBytes = sizeof(F);
    static_assert(kBytes == W * sizeof(double));
    const lanes::Dynamics<W> dyn(model, p0);
    U s[4];
    std::memcpy(s, stream_.data(), sizeof s);
    F total = F{};
    double* __restrict stake_at = stake_.data();
    double* __restrict score_at = score_.data();
    for (std::size_t v = 0; v < n_; ++v, stake_at += W, score_at += W) {
      F stake;
      F score;
      std::memcpy(&stake, stake_at, kBytes);
      std::memcpy(&score, score_at, kBytes);
      total += stake;
      const U live = (U)(stake != F{});
      U n0 = s[0];
      U n1 = s[1];
      U n2 = s[2];
      U n3 = s[3];
      U draw;
      lanes::next_draw(n0, n1, n2, n3, draw);
      s[0] = (n0 & live) | (s[0] & ~live);
      s[1] = (n1 & live) | (s[1] & ~live);
      s[2] = (n2 & live) | (s[2] & ~live);
      s[3] = (n3 & live) | (s[3] & ~live);
      lanes::update(dyn, draw, stake, score);
      std::memcpy(stake_at, &stake, kBytes);
      std::memcpy(score_at, &score, kBytes);
    }
    std::memcpy(stream_.data(), s, sizeof s);
    std::memcpy(sums, &total, kBytes);
  });
}

void CohortTile::stake_sums(double* sums) const {
  with_lanes(lanes_, [&]<std::size_t W>() {
    using F = typename lanes::Lanes<W>::F;
    F total = F{};
    for (std::size_t v = 0; v < n_; ++v) {
      F stake;
      std::memcpy(&stake, &stake_[v * W], sizeof stake);
      total += stake;
    }
    std::memcpy(sums, &total, sizeof total);
  });
}

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
