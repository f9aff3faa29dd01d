#include "src/penalties/slashing.hpp"

namespace leak::penalties {

SlashingDetector::SlashingDetector(Store store) : store_(std::move(store)) {}

std::optional<SlashingProof> SlashingDetector::observe(std::uint64_t id) {
  const chain::Attestation& att = store_(id);
  auto& seen = by_attester_[att.attester];
  std::optional<SlashingProof> proof;
  for (const std::uint64_t prev : seen) {
    if (chain::is_slashable_pair(store_(prev), att)) {
      proof = SlashingProof{store_(prev), att};
      break;
    }
  }
  seen.push_back(id);
  return proof;
}

Gwei apply_slashing(chain::ValidatorRegistry& registry, ValidatorIndex who,
                    Epoch at, const SpecConfig& config) {
  auto& rec = registry.at(who);
  if (rec.slashed) return Gwei{};
  rec.slashed = true;
  const Gwei burn{rec.balance.value() / config.min_slashing_penalty_quotient};
  rec.balance -= burn;
  registry.eject(who, at);
  return burn;
}

}  // namespace leak::penalties
