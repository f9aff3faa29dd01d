// Slashing: detection of equivocating attestations and application of the
// slashing penalty + forced exit (Section 3.3, penalty type (i)).
//
// The detector reports a proof when a newly observed attestation forms
// a slashable pair (double vote or surround vote) with one observed
// before.  It keeps no per-attester history.  In the spirit of
// Lighthouse's slasher it keeps, per attester and epoch e, four ids:
//   * the first vote with target e, and one whose data differs from
//     it: a double vote exists exactly when a new vote differs from
//     the first, or equals it while another differs;
//   * the vote with the least target among those whose source is after
//     e, and the one with the least source among those whose target is
//     after e: a vote (s, t) surrounds an earlier one exactly when the
//     least target after s is below t, and is surrounded exactly when
//     the least source after t is below s.
// Each minimum can only rise with e, so entering a vote lowers a run of
// entries below its epoch and stops at the first it leaves alone.  An
// observation therefore costs the same at any history length, and it
// is caught exactly when some earlier vote conflicts; the proof names
// one such vote, not necessarily the earliest.  The attestations
// themselves live in a caller-owned store that every detector shares;
// a detector keeps only their ids.  In the simulator, honest
// validators only learn of conflicting attestations once the partition
// heals — which is exactly why the Section 5.2.1 adversary escapes
// punishment until after the damage is done.
#pragma once

#include <cstdint>
#include <functional>
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

  /// Observe the attestation stored under `id` (below 2^32 - 1; throws
  /// std::out_of_range otherwise); returns a proof if it conflicts with
  /// any previously observed attestation by the same validator, naming
  /// one such attestation as `first`.
  std::optional<SlashingProof> observe(std::uint64_t id);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// An observed vote and one of its epochs; id kNone when empty.
  struct Least {
    std::uint32_t epoch = 0;
    std::uint32_t id = kNone;
  };
  /// One attester's record for one epoch e.
  struct EpochRecord {
    /// The first vote with target e, and one whose data differs from
    /// it (kNone when absent).
    std::uint32_t first = kNone;
    std::uint32_t other = kNone;
    /// The vote with the least target among those whose source is
    /// after e, and the one with the least source among those whose
    /// target is after e.  Both are non-decreasing in e.
    Least min_target;
    Least min_source;
  };

  /// Attester `a`'s record for epoch `e` (both inside the table).
  [[nodiscard]] EpochRecord& at(std::size_t e, std::size_t a) {
    return records_[e * width_ + a];
  }
  /// Widen the table to attester `a` and lengthen it to epoch `e`.
  void grow(std::size_t e, std::size_t a);
  /// Lower `field` of attester `a`'s records below epoch `from` to
  /// (`epoch`, `id`) where it is higher.
  void lower(Least EpochRecord::*field, std::size_t a, std::uint32_t from,
             std::uint32_t epoch, std::uint32_t id);

  Store store_;
  /// The records, one row per epoch up to the largest seen and one
  /// column per attester up to the largest seen, so the observations
  /// of one epoch touch a few adjacent rows.  Past the last row no vote
  /// has a later source or target, as a new row starts.
  std::vector<EpochRecord> records_;
  std::size_t width_ = 0;
  std::size_t rows_ = 0;
};

/// Applies a slashing: burns balance/min_slashing_penalty_quotient and
/// ejects the offender at `at`.  Returns the burned amount; zero when the
/// validator was already slashed (idempotent).
Gwei apply_slashing(chain::ValidatorRegistry& registry, ValidatorIndex who,
                    Epoch at, const SpecConfig& config);

}  // namespace leak::penalties
