#include "src/chain/block.hpp"

namespace leak::chain {

Digest Block::compute_id(const Digest& parent, Slot slot,
                         ValidatorIndex proposer, const Digest& body_root) {
  crypto::Sha256 h;
  h.update("leak/block/v1");
  h.update(std::span<const std::uint8_t>(parent.data(), parent.size()));
  h.update_value(slot.value());
  h.update_value(proposer.value());
  h.update(std::span<const std::uint8_t>(body_root.data(), body_root.size()));
  return h.finalize();
}

Block Block::make(const Digest& parent, Slot slot, ValidatorIndex proposer,
                  const Digest& body_root) {
  Block b;
  b.parent = parent;
  b.slot = slot;
  b.proposer = proposer;
  b.body_root = body_root;
  b.id = compute_id(parent, slot, proposer, body_root);
  return b;
}

bool is_slashable_pair(const Attestation& a, const Attestation& b) {
  if (a.attester != b.attester) return false;
  const bool same_data =
      a.target == b.target && a.source == b.source && a.head == b.head;
  // Double vote: same target epoch, different data.
  if (a.target.epoch == b.target.epoch && !same_data) return true;
  // Surround vote: a surrounds b or b surrounds a.
  const bool a_surrounds_b =
      a.source.epoch < b.source.epoch && b.target.epoch < a.target.epoch;
  const bool b_surrounds_a =
      b.source.epoch < a.source.epoch && a.target.epoch < b.target.epoch;
  return a_surrounds_b || b_surrounds_a;
}

}  // namespace leak::chain
