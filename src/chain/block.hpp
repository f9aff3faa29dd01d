// Core chain data types: blocks, checkpoints, attestations.
#pragma once

#include <cstdint>
#include <string>

#include "src/crypto/sha256.hpp"
#include "src/support/types.hpp"

namespace leak::chain {

using crypto::Digest;

/// Hash functor for digests (first 8 bytes are already uniform).
struct DigestHash {
  std::size_t operator()(const Digest& d) const noexcept {
    return static_cast<std::size_t>(crypto::short_id(d));
  }
};

/// A beacon block: identity is the hash of (parent, slot, proposer, body).
struct Block {
  Digest id{};
  Digest parent{};
  Slot slot{};
  ValidatorIndex proposer{};
  /// Merkle root of the attestations carried in the body.
  Digest body_root{};

  /// Compute the canonical id for the given content.
  static Digest compute_id(const Digest& parent, Slot slot,
                           ValidatorIndex proposer, const Digest& body_root);

  /// Construct a block, computing its id.
  static Block make(const Digest& parent, Slot slot, ValidatorIndex proposer,
                    const Digest& body_root = Digest{});
};

/// A checkpoint: the block of the first slot of an epoch, paired with the
/// epoch number (Section 3.1 of the paper).
struct Checkpoint {
  Digest block{};
  Epoch epoch{};

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// An attestation: one per validator per epoch, carrying the two votes of
/// Section 3.2 — the block (head) vote feeding LMD-GHOST fork choice, and
/// the checkpoint (FFG) vote feeding justification/finalization.
///
/// It carries no signature.  The paper's model needs signatures only to
/// name the sender and to be unforgeable, and the slot simulator gives
/// both by construction: it sets `attester` itself, and no adversary in
/// it forges or alters a message.  A future forging adversary would
/// need an authenticity check brought back on the delivery path.
struct Attestation {
  ValidatorIndex attester{};
  Slot slot{};
  /// Block vote: head of the chain in the attester's view.
  Digest head{};
  /// Checkpoint vote: source (last justified) -> target (current epoch
  /// boundary checkpoint).
  Checkpoint source{};
  Checkpoint target{};
};

/// True when the two attestations constitute a slashable offense by the
/// same validator (eth2 `is_slashable_attestation_data`):
///  * double vote  — same target epoch, different attestation data;
///  * surround vote — one vote's span strictly surrounds the other's.
[[nodiscard]] bool is_slashable_pair(const Attestation& a,
                                     const Attestation& b);

}  // namespace leak::chain
