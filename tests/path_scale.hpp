// LEAK_TEST_PATH_SCALE, the test suites' Monte Carlo sample-count knob.
// It lives under tests/ because no production binary reads it; it
// parses like the knobs in src/support/env.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>

#include "src/support/env.hpp"
#include "src/support/parse.hpp"

namespace leak::env {

/// Floating-point knob; same contract as u64_or.
inline double double_or(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const auto v = parse::real(raw);
  if (!v) {
    warn_invalid(name, raw, "a finite number");
    return fallback;
  }
  return *v;
}

/// LEAK_TEST_PATH_SCALE: multiplier the slow Monte Carlo test suites
/// apply to their path/run counts so the CI Debug and sanitizer lanes
/// stay inside their wall-clock budget (clamped to [0.01, 1]).  Tests
/// whose statistical tolerances require the full sample size skip
/// themselves when the scale is below 1.
inline double test_path_scale() {
  return std::clamp(double_or("LEAK_TEST_PATH_SCALE", 1.0), 0.01, 1.0);
}

/// `base` Monte Carlo paths/runs scaled by test_path_scale(), never 0.
inline std::size_t scaled_count(std::size_t base) {
  const auto scaled =
      static_cast<std::size_t>(static_cast<double>(base) * test_path_scale());
  return std::max<std::size_t>(scaled, 1);
}

}  // namespace leak::env
