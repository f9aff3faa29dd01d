#include "src/chain/shuffle.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <stdexcept>

namespace leak::chain {

namespace {

std::uint64_t le64(const crypto::Digest& d) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | d[static_cast<std::size_t>(i)];
  }
  return v;
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
  if (n <= 1 || rounds <= 0) return out;
  // Every hash depends only on (seed, round, position block), so all of
  // them are hashed up front, sixteen to a SIMD batch.  One message per
  // (round, block): seed || round || position (the spec's 4-byte
  // little-endian uint_to_bytes).  Each round's pivot hashes the first
  // 33 bytes of its block-0 message.
  constexpr std::size_t kMsg = 37;
  const auto round_count = static_cast<std::size_t>(rounds);
  const std::size_t block_count = (n + 255) / 256;
  std::vector<std::uint8_t> msgs(round_count * block_count * kMsg);
  for (std::size_t r = 0; r < round_count; ++r) {
    for (std::size_t blk = 0; blk < block_count; ++blk) {
      std::uint8_t* msg = msgs.data() + (r * block_count + blk) * kMsg;
      std::copy(seed.begin(), seed.end(), msg);
      msg[32] = static_cast<std::uint8_t>(r);
      for (std::size_t b = 0; b < 4; ++b) {
        msg[33 + b] = static_cast<std::uint8_t>(blk >> (8 * b));
      }
    }
  }
  std::vector<crypto::Digest> pivots(round_count);
  std::vector<crypto::Digest> sources(round_count * block_count);
  crypto::sha256_batch(msgs.data(), 33, block_count * kMsg, round_count,
                       pivots.data());
  crypto::sha256_batch(msgs.data(), kMsg, kMsg, sources.size(),
                       sources.data());
  for (std::size_t r = 0; r < round_count; ++r) {
    const std::uint64_t pivot = le64(pivots[r]) % n;
    const crypto::Digest* blocks = sources.data() + r * block_count;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t index = out[i];
      // (pivot + n - index) % n without the division: index, pivot < n.
      const std::uint64_t flip =
          index <= pivot ? pivot - index : pivot + n - index;
      const std::uint64_t position = std::max(index, flip);
      const std::uint8_t byte = blocks[position >> 8][(position & 255) >> 3];
      // All ones when the source bit is set: swap without a branch.
      const std::uint64_t take =
          std::uint64_t{0} - ((byte >> (position & 7)) & 1U);
      out[i] = index ^ ((index ^ flip) & take);
    }
  }
  return out;
}

DutyRoster::DutyRoster(const ValidatorRegistry& registry, Epoch epoch,
                       std::uint64_t base_seed) {
  // Active set at this epoch.
  std::vector<ValidatorIndex> active;
  for (std::uint32_t i = 0; i < registry.size(); ++i) {
    const ValidatorIndex v{i};
    if (registry.is_active(v, epoch)) active.push_back(v);
  }
  if (active.empty()) {
    throw std::invalid_argument("DutyRoster: no active validators");
  }

  // Epoch seed.
  crypto::Sha256 hs;
  hs.update("leak/duty-seed/v1");
  hs.update_value(base_seed);
  hs.update_value(epoch.value());
  const crypto::Digest seed = hs.finalize();

  // Committees: shuffle the active set and deal it over the 32 slots.
  const std::uint64_t n = active.size();
  committees_.assign(kSlotsPerEpoch, {});
  const auto perm = shuffle_list(n, seed);
  for (std::uint64_t i = 0; i < n; ++i) {
    committees_[i % kSlotsPerEpoch].push_back(active[perm[i]]);
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
  // One message per slot: pseed || pos || i, the integers in native
  // byte order.  The slot's offset hashes the first 40 bytes.  The
  // offsets and the first draws (i = 0) are hashed in two batches; a
  // rejected first draw hashes its retries one at a time.
  constexpr std::size_t kMsg = 48;
  std::array<std::uint8_t, kSlotsPerEpoch * kMsg> msgs{};
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
    std::copy(pseed.begin(), pseed.end(), msgs.data() + pos * kMsg);
    std::memcpy(msgs.data() + pos * kMsg + 32, &pos, sizeof(pos));
  }
  std::array<crypto::Digest, kSlotsPerEpoch> offsets;
  std::array<crypto::Digest, kSlotsPerEpoch> first_draws;
  crypto::sha256_batch(msgs.data(), 40, kMsg, kSlotsPerEpoch,
                       offsets.data());
  crypto::sha256_batch(msgs.data(), kMsg, kMsg, kSlotsPerEpoch,
                       first_draws.data());
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
    const std::span<std::uint8_t, kMsg> msg(msgs.data() + pos * kMsg, kMsg);
    const std::uint64_t offset = crypto::short_id(offsets[pos]) % n;
    ValidatorIndex chosen = active[pperm[offset]];
    for (std::uint64_t i = 0; i <= 10000; ++i) {
      const ValidatorIndex candidate = active[pperm[(offset + i) % n]];
      std::uint8_t random_byte = first_draws[pos][0];
      if (i > 0) {
        std::memcpy(msg.data() + 40, &i, sizeof(i));
        random_byte = crypto::sha256(msg)[0];
      }
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
