// Kernel-private: the lane vector types and the one lane step of the
// Figure 8 dynamics, shared by the stake batch's register tile
// (stake_batch.cpp) and the cohort run tile (cohort.cpp).  The vector
// width follows the target, so only the kernel TUs include this
// header, and src/CMakeLists.txt compiles them all with the same
// LEAK_KERNEL_FLAGS.
//
// Written with GCC/Clang vector extensions, in the subset both accept:
// arithmetic, bitwise ops, shifts by constants, comparisons to masks
// and same-size casts (no intrinsics, no `?:` on vectors).  Vectors
// pass by reference only, so the vector ABI (-Wpsabi) is never
// involved.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/analytic/config.hpp"
#include "src/support/random.hpp"

namespace leak::kernel::lanes {

/// The target's widest vector: 8 doubles with 512-bit vectors, 4 with
/// AVX, 2 on baseline SSE2.
constexpr std::size_t kVectorBytes =
    std::max<std::size_t>(16, __BIGGEST_ALIGNMENT__);
constexpr std::size_t kLanes = kVectorBytes / sizeof(double);

/// W lanes of raw draws (U) and of doubles (F), W a power of two from
/// 2 up to kLanes (GCC reads a one-element vector_size as the scalar,
/// whose compares give 1, not an all-ones mask).  typedef, not using:
/// GCC drops the attribute from a dependent alias-declaration.
template <std::size_t W>
struct Lanes {
  typedef std::uint64_t U __attribute__((vector_size(W * 8)));
  typedef double F __attribute__((vector_size(W * 8)));
};

using U64 = Lanes<kLanes>::U;
using F64 = Lanes<kLanes>::F;
static_assert(sizeof(F64) == kVectorBytes && sizeof(U64) == kVectorBytes);

/// The dynamics' constants, broadcast to each of W lanes.
template <std::size_t W>
struct Dynamics {
  using U = typename Lanes<W>::U;
  using F = typename Lanes<W>::F;
  F quotient;
  F decrement;
  F bias;
  F threshold;
  U cut;  ///< bernoulli_cut(p0)

  Dynamics(const analytic::AnalyticConfig& model, double p0)
      : quotient(F{} + model.quotient),
        decrement(F{} + model.score_active_decrement),
        bias(F{} + model.score_bias),
        threshold(F{} + model.ejection_threshold),
        cut(U{} + static_cast<std::uint64_t>(bernoulli_cut(p0))) {}
};

/// One xoshiro256** step on every lane (Rng::operator(); the two
/// constant multiplies as shift-adds, the rotates as shift pairs):
/// `draw` receives each lane's output and the four words advance.
template <typename U>
inline void next_draw(U& s0, U& s1, U& s2, U& s3, U& draw) {
  const U m5 = s1 + (s1 << 2);  // s1 * 5
  const U r7 = (m5 << 7) | (m5 >> 57);
  draw = r7 + (r7 << 3);  // rotl(s1*5,7) * 9
  const U t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = (s3 << 45) | (s3 >> 19);
}

/// One epoch of one stake per lane, in the scalar oracle's op order:
/// Eq 2 penalty with the previous score, Eq 1 floored score update as
/// a blend of both candidates on the raw draw (exactly uniform() < p0),
/// ejection flush to exactly 0.0 as a mask.  A stake of exactly 0.0
/// (ejected or padding) stays 0.0 through the penalty and the flush,
/// so whatever `draw` it is given is unobservable.
template <std::size_t W>
inline void update(const Dynamics<W>& d, const typename Dynamics<W>::U& draw,
                   typename Dynamics<W>::F& stake,
                   typename Dynamics<W>::F& score) {
  using U = typename Dynamics<W>::U;
  using F = typename Dynamics<W>::F;
  stake -= score * stake / d.quotient;
  // std::max(score - decrement, 0.0): 0.0 where the difference is
  // below 0 (+0.0 is the all-zero bit pattern).
  const F diff = score - d.decrement;
  const U floored = (U)diff & ~(U)(diff < F{});
  const U incremented = (U)(score + d.bias);
  // (draw >> 11) < cut as the sign of the difference, spread by a
  // logical shift and a negation: baseline SSE2 has no packed 64-bit
  // compare or arithmetic shift to keep it in registers.
  const U hit = U{} - (((draw >> 11) - d.cut) >> 63);
  score = (F)((floored & hit) | (incremented & ~hit));
  stake = (F)((U)stake & ~(U)(stake <= d.threshold));
}

}  // namespace leak::kernel::lanes
