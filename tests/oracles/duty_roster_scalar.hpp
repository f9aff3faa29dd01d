// The duty roster as it was built before its one-block hashes were
// batched: each shuffle hashes its pivot and source blocks one at a
// time per round, and every proposer draw hashes its own message.  The
// live chain::DutyRoster is held to it committee for committee and
// proposer for proposer.
//
// Do not "fix" or modernize this code: its value is that it does not
// change.
#pragma once

#include <cstdint>
#include <vector>

#include "src/chain/registry.hpp"

namespace leak::oracle {

/// One epoch's duties, plus how many proposer draws were rejected (each
/// rejection hashes one more draw message).
struct RosterDuties {
  std::vector<std::vector<ValidatorIndex>> committees;
  std::vector<ValidatorIndex> proposers;
  std::uint64_t rejected_draws = 0;
};

/// The roster for `epoch` over the active validators of `registry`,
/// computed the pre-batching way.  Throws std::invalid_argument when no
/// validator is active.
[[nodiscard]] RosterDuties duty_roster_scalar(
    const chain::ValidatorRegistry& registry, Epoch epoch,
    std::uint64_t base_seed);

}  // namespace leak::oracle
