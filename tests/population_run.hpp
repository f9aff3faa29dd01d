// One finite-population run on cfg.seed, for the tests that follow a
// single run's trajectory: the library's tile routine with one seed
// (a one-lane cohort tile).
#pragma once

#include <cstdint>

#include "src/bouncing/montecarlo.hpp"

namespace leak::bouncing {

inline PopulationRunResult run_population_bouncing(
    const PopulationRunConfig& cfg) {
  PopulationRunResult res;
  const std::uint64_t seed = cfg.seed;
  run_population_tiles(cfg, &seed, 1, &res);
  return res;
}

}  // namespace leak::bouncing
