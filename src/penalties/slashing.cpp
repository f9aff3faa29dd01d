#include "src/penalties/slashing.hpp"

#include <algorithm>
#include <stdexcept>

namespace leak::penalties {

SlashingDetector::SlashingDetector(Store store) : store_(std::move(store)) {}

void SlashingDetector::grow(std::size_t e, std::size_t a) {
  // A new column has no votes, and no vote has epochs past the old
  // rows: new records start empty.
  if (a >= width_) {
    const std::size_t width = a + 1;
    std::vector<EpochRecord> wider(rows_ * width);
    for (std::size_t r = 0; r < rows_; ++r) {
      std::copy_n(&records_[r * width_], width_, &wider[r * width]);
    }
    records_ = std::move(wider);
    width_ = width;
  }
  if (e >= rows_) {
    rows_ = e + 1;
    records_.resize(rows_ * width_);
  }
}

void SlashingDetector::lower(Least EpochRecord::*field, std::size_t a,
                             std::uint32_t from, std::uint32_t epoch,
                             std::uint32_t id) {
  for (std::uint32_t e = from; e-- > 0;) {
    Least& m = at(e, a).*field;
    if (m.id != kNone && m.epoch <= epoch) break;
    m = Least{epoch, id};
  }
}

std::optional<SlashingProof> SlashingDetector::observe(std::uint64_t id) {
  const chain::Attestation& att = store_(id);
  const std::uint64_t s = att.source.epoch.value();
  const std::uint64_t t = att.target.epoch.value();
  if (id >= kNone || s >= kNone || t >= kNone) {
    throw std::out_of_range("SlashingDetector: id or epoch out of range");
  }
  const std::size_t a = att.attester.value();
  grow(std::max(s, t), a);
  const auto id32 = static_cast<std::uint32_t>(id);
  const auto s32 = static_cast<std::uint32_t>(s);
  const auto t32 = static_cast<std::uint32_t>(t);
  std::optional<std::uint32_t> witness;
  // Double vote: a vote for the same target epoch with other data (for
  // two such votes, exactly what makes them a slashable pair).
  EpochRecord& rec = at(t, a);
  if (rec.first == kNone) {
    rec.first = id32;
  } else if (chain::is_slashable_pair(store_(rec.first), att)) {
    witness = rec.first;
    if (rec.other == kNone) rec.other = id32;
  } else if (rec.other != kNone) {
    witness = rec.other;
  }
  // Surround votes: one with a later source and an earlier target is
  // surrounded, one with a later target and an earlier source
  // surrounds.
  const Least& inner = at(s, a).min_target;
  const Least& outer = rec.min_source;
  if (!witness && inner.id != kNone && inner.epoch < t32) witness = inner.id;
  if (!witness && outer.id != kNone && outer.epoch < s32) witness = outer.id;
  lower(&EpochRecord::min_target, a, s32, t32, id32);
  lower(&EpochRecord::min_source, a, t32, s32, id32);
  if (!witness) return std::nullopt;
  return SlashingProof{store_(*witness), att};
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
