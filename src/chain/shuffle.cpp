#include "src/chain/shuffle.hpp"

#include <stdexcept>

namespace leak::chain {

namespace {

std::uint64_t le64(const crypto::Digest& d, std::size_t offset = 0) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | d[offset + static_cast<std::size_t>(i)];
  }
  return v;
}

crypto::Digest hash_round(const crypto::Digest& seed, std::uint8_t round) {
  crypto::Sha256 h;
  h.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
  h.update_value(round);
  return h.finalize();
}

crypto::Digest hash_round_position(const crypto::Digest& seed,
                                   std::uint8_t round,
                                   std::uint32_t position_div) {
  crypto::Sha256 h;
  h.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
  h.update_value(round);
  h.update_value(position_div);
  return h.finalize();
}

}  // namespace

std::vector<std::uint64_t> shuffle_list(std::uint64_t n,
                                        const crypto::Digest& seed,
                                        int rounds) {
  // The spec's compute_shuffled_index for every index at once: the
  // per-round pivot and the 256-position source blocks are hashed once
  // per round instead of once per index — O(rounds * n/256) hashes.
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = i;
  if (n <= 1) return out;
  std::vector<crypto::Digest> blocks((n + 255) / 256);
  for (int r = 0; r < rounds; ++r) {
    const auto round = static_cast<std::uint8_t>(r);
    const std::uint64_t pivot = le64(hash_round(seed, round)) % n;
    for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
      blocks[blk] = hash_round_position(seed, round,
                                        static_cast<std::uint32_t>(blk));
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t index = out[i];
      const std::uint64_t flip = (pivot + n - index) % n;
      const std::uint64_t position = std::max(index, flip);
      const crypto::Digest& source = blocks[position / 256];
      const std::uint8_t byte =
          source[static_cast<std::size_t>((position % 256) / 8)];
      if ((byte >> (position % 8)) & 1) out[i] = flip;
    }
  }
  return out;
}

DutyRoster::DutyRoster(const ValidatorRegistry& registry, Epoch epoch,
                       std::uint64_t base_seed) {
  // Active set at this epoch.
  for (std::uint32_t i = 0; i < registry.size(); ++i) {
    const ValidatorIndex v{i};
    if (registry.is_active(v, epoch)) active_.push_back(v);
  }
  if (active_.empty()) {
    throw std::invalid_argument("DutyRoster: no active validators");
  }

  // Epoch seed.
  crypto::Sha256 hs;
  hs.update("leak/duty-seed/v1");
  hs.update_value(base_seed);
  hs.update_value(epoch.value());
  const crypto::Digest seed = hs.finalize();

  // Committees: shuffle the active set and deal it over the 32 slots.
  const std::uint64_t n = active_.size();
  committees_.assign(kSlotsPerEpoch, {});
  const auto perm = shuffle_list(n, seed);
  for (std::uint64_t i = 0; i < n; ++i) {
    committees_[i % kSlotsPerEpoch].push_back(active_[perm[i]]);
  }

  // Proposers: rejection-sample on effective balance along a second
  // epoch-wide shuffled order, starting each slot at a seed-derived
  // offset (compute_proposer_index-style acceptance test).
  crypto::Sha256 hp;
  hp.update("leak/proposer-seed/v1");
  hp.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
  const crypto::Digest pseed = hp.finalize();
  const auto pperm = shuffle_list(n, pseed);
  proposers_.reserve(kSlotsPerEpoch);
  const auto max_balance = Gwei::from_eth(kInitialStakeEth);
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
    crypto::Sha256 ho;
    ho.update(std::span<const std::uint8_t>(pseed.data(), pseed.size()));
    ho.update_value(pos);
    const std::uint64_t offset = crypto::short_id(ho.finalize()) % n;
    ValidatorIndex chosen = active_[pperm[offset]];
    for (std::uint64_t i = 0; i <= 10000; ++i) {
      const ValidatorIndex candidate = active_[pperm[(offset + i) % n]];
      crypto::Sha256 hb;
      hb.update(std::span<const std::uint8_t>(pseed.data(), pseed.size()));
      hb.update_value(pos);
      hb.update_value(i);
      const std::uint8_t random_byte = hb.finalize()[0];
      const auto balance = registry.at(candidate).balance;
      // accept with probability balance / max_balance
      if (static_cast<__uint128_t>(balance.value()) * 255 >=
          static_cast<__uint128_t>(max_balance.value()) * random_byte) {
        chosen = candidate;
        break;
      }
    }
    proposers_.push_back(chosen);
  }
}

const std::vector<ValidatorIndex>& DutyRoster::committee(
    std::uint64_t position) const {
  return committees_.at(position);
}

ValidatorIndex DutyRoster::proposer(std::uint64_t position) const {
  return proposers_.at(position);
}

}  // namespace leak::chain
