// Deterministic, seedable PRNG used across the simulator so that every
// experiment is reproducible from a single seed.  xoshiro256** with a
// splitmix64 seeder (public-domain algorithms by Blackman & Vigna).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace leak {

/// splitmix64 step; used to expand one 64-bit seed into a xoshiro state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed = 0x1234abcdULL) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  constexpr std::uint64_t operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t t = (0 - n) % n;
      while (lo < t) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
};

/// Integer form of Rng::bernoulli(p) for lane kernels that keep raw
/// draws: a draw x succeeds exactly when (x >> 11) < bernoulli_cut(p).
/// For an integer m, m * 2^-53 < p holds iff m < p * 2^53 iff
/// m < ceil(p * 2^53), and both the scaling and the ceil are exact.
/// p >= 1 gives 2^53 (every draw succeeds); p <= 0 (-0.0 included) and
/// NaN give 0 (none does).  Signed: (x >> 11) - cut never overflows.
[[nodiscard]] inline std::int64_t bernoulli_cut(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::int64_t{1} << 53;
  return static_cast<std::int64_t>(std::ceil(p * 0x1.0p53));
}

/// `hit` when the raw draw x succeeds against cut = bernoulli_cut(p),
/// else `miss`.  Integer ops only (the sign of (x >> 11) - cut spread
/// to a mask, then a bitwise blend), so a lane loop calling it
/// vectorizes on baseline SSE2, which has no packed 64-bit compare.
[[nodiscard]] constexpr double bernoulli_select(std::uint64_t x,
                                                std::int64_t cut, double hit,
                                                double miss) {
  const auto mask = static_cast<std::uint64_t>(
      (static_cast<std::int64_t>(x >> 11) - cut) >> 63);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(hit) & mask) |
                               (std::bit_cast<std::uint64_t>(miss) & ~mask));
}

/// Derives statistically independent per-trial RNG streams from a
/// single master seed, counter-style: stream i's seed is a splitmix64
/// hash of (master_seed, i), so trial i's randomness depends only on
/// the pair — never on which thread ran it or in what order.  This is
/// what makes the parallel trial runner bit-identical for any thread
/// count (and lets a sweep reproduce one interesting trial in
/// isolation from just (master_seed, trial_index)).
class StreamSeeder {
 public:
  explicit constexpr StreamSeeder(std::uint64_t master_seed)
      : master_(master_seed) {}

  /// 64-bit seed of stream `index`.
  [[nodiscard]] constexpr std::uint64_t seed_for(std::uint64_t index) const {
    // Domain-separate from a plain Rng(master_seed), mix the master
    // through one splitmix64 round, then offset by the index scaled
    // with the (odd) golden-ratio gamma — an injective map of the
    // index — and avalanche once more.
    std::uint64_t state = master_ ^ 0x8e9f0b7c3a5d1e24ULL;
    (void)splitmix64(state);
    state += (index + 1) * 0x9e3779b97f4a7c15ULL;
    return splitmix64(state);
  }

  /// Ready-to-use generator for stream `index`.
  [[nodiscard]] constexpr Rng stream(std::uint64_t index) const {
    return Rng{seed_for(index)};
  }

 private:
  std::uint64_t master_;
};

}  // namespace leak
