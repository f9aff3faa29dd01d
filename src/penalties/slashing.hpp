// Slashing: detection of equivocating attestations and application of the
// slashing penalty + forced exit (Section 3.3, penalty type (i)).
//
// The detector remembers every attestation it is shown, indexed by
// attester, and reports a proof when a newly observed attestation forms
// a slashable pair (double vote or surround vote) with a remembered one.
// The attestations themselves live in a caller-owned store that every
// detector shares; a detector keeps only their ids.  In the
// simulator, honest validators only learn of conflicting attestations
// once the partition heals — which is exactly why the Section 5.2.1
// adversary escapes punishment until after the damage is done.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/chain/block.hpp"
#include "src/chain/registry.hpp"
#include "src/penalties/spec_config.hpp"

namespace leak::penalties {

/// Evidence of a slashable offense: the two conflicting attestations.
struct SlashingProof {
  chain::Attestation first;
  chain::Attestation second;

  [[nodiscard]] ValidatorIndex offender() const { return first.attester; }
};

/// Watches attestations and finds slashable pairs.
class SlashingDetector {
 public:
  /// Resolves an id to its attestation.  An id must keep naming the
  /// same attestation for as long as the detector lives.
  using Store = std::function<const chain::Attestation&(std::uint64_t)>;

  explicit SlashingDetector(Store store);

  /// Observe the attestation stored under `id`; returns a proof if it
  /// conflicts with any previously observed attestation by the same
  /// validator (the earliest such one).
  std::optional<SlashingProof> observe(std::uint64_t id);

 private:
  Store store_;
  /// Ordered map (leaklint D4): src/penalties is a reduction layer, and
  /// an ordered container keeps any future iteration deterministic.
  std::map<ValidatorIndex, std::vector<std::uint64_t>> by_attester_;
};

/// Applies a slashing: burns balance/min_slashing_penalty_quotient and
/// ejects the offender at `at`.  Returns the burned amount; zero when the
/// validator was already slashed (idempotent).
Gwei apply_slashing(chain::ValidatorRegistry& registry, ValidatorIndex who,
                    Epoch at, const SpecConfig& config);

}  // namespace leak::penalties
