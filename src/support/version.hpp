// Build provenance stamped into scenario results so an archived JSON
// artifact names the exact tree that produced it.
//
// This header is also the one sanctioned wall-clock site in src/
// (leaklint rule D1): timing here is provenance metadata — it stamps
// how long a run took — and never feeds simulation state, which must
// derive every bit from the seed.
#pragma once

namespace leak {

/// `git describe --always --dirty` of the tree at its last build, or
/// "unknown" when the build happened outside a git checkout.
[[nodiscard]] const char* git_describe();

/// Milliseconds on the monotonic clock, for wall-time provenance
/// stamps (ScenarioResult::wall_ms).  Differences are meaningful;
/// absolute values are not.
[[nodiscard]] double monotonic_ms();

}  // namespace leak
