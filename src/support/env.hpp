// Environment-variable knobs shared by the simulators and the bench
// binaries (the test suites' LEAK_TEST_PATH_SCALE lives in
// tests/path_scale.hpp).  Every knob is read-on-demand (no
// cached globals) so a test can set/unset variables between cases.
//
// Parsing is strict (src/support/parse.hpp): a malformed value —
// trailing garbage ("LEAK_THREADS=4x"), overflow, an empty or
// sign-prefixed string — is rejected with one clear stderr diagnostic
// and the fallback is used, instead of strtoull-style silent
// truncation handing the caller a number the user never wrote.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

#include "src/support/parse.hpp"

namespace leak::env {

/// Diagnose a malformed knob, once per distinct (name, value) pair —
/// knobs are read on demand, so without the dedup a hot caller (e.g.
/// resolve_threads per pool construction) would repeat the same line.
inline void warn_invalid(const char* name, const char* raw,
                         const char* expected) {
  static std::mutex mu;
  static std::set<std::string>& seen = *new std::set<std::string>();
  {
    std::scoped_lock lk(mu);
    if (!seen.insert(std::string(name) + "=" + raw).second) return;
  }
  std::fprintf(stderr,
               "leak: ignoring invalid %s=\"%s\" (expected %s); "
               "using the default\n",
               name, raw, expected);
}

/// Unsigned integer knob; unset falls back silently, a present but
/// malformed value (garbage, overflow, empty, negative) warns on
/// stderr (once per distinct value) and falls back.
inline std::uint64_t u64_or(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const auto v = parse::u64(raw);
  if (!v) {
    warn_invalid(name, raw, "an unsigned integer");
    return fallback;
  }
  return *v;
}

}  // namespace leak::env
