#include "src/support/version.hpp"

#include <chrono>

// Defines LEAK_GIT_DESCRIBE.  Generated on every build by
// src/support/git_describe.cmake and included by this file only, so a
// changing git state never rebuilds the rest of the library.
#include "git_describe.inc"

namespace leak {

const char* git_describe() { return LEAK_GIT_DESCRIBE; }

double monotonic_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace leak
