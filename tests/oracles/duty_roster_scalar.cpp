// The duty roster before batched hashing.  See the header for the
// contract.
#include "tests/oracles/duty_roster_scalar.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <stdexcept>

#include "src/crypto/sha256.hpp"

namespace leak::oracle {

namespace {

std::uint64_t le64(const crypto::Digest& d) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | d[static_cast<std::size_t>(i)];
  }
  return v;
}

std::vector<std::uint64_t> shuffle_list(std::uint64_t n,
                                        const crypto::Digest& seed) {
  constexpr int kRounds = 90;
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t i = 0; i < n; ++i) out[i] = i;
  if (n <= 1) return out;
  std::array<std::uint8_t, 37> msg{};
  std::copy(seed.begin(), seed.end(), msg.begin());
  const std::span<const std::uint8_t> pivot_msg(msg.data(), 33);
  std::vector<crypto::Digest> blocks((n + 255) / 256);
  for (int r = 0; r < kRounds; ++r) {
    msg[32] = static_cast<std::uint8_t>(r);
    const std::uint64_t pivot = le64(crypto::sha256(pivot_msg)) % n;
    for (std::size_t blk = 0; blk < blocks.size(); ++blk) {
      for (std::size_t b = 0; b < 4; ++b) {
        msg[33 + b] = static_cast<std::uint8_t>(blk >> (8 * b));
      }
      blocks[blk] = crypto::sha256(msg);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t index = out[i];
      const std::uint64_t flip =
          index <= pivot ? pivot - index : pivot + n - index;
      const std::uint64_t position = std::max(index, flip);
      const std::uint8_t byte = blocks[position >> 8][(position & 255) >> 3];
      const std::uint64_t take =
          std::uint64_t{0} - ((byte >> (position & 7)) & 1U);
      out[i] = index ^ ((index ^ flip) & take);
    }
  }
  return out;
}

}  // namespace

RosterDuties duty_roster_scalar(const chain::ValidatorRegistry& registry,
                                Epoch epoch, std::uint64_t base_seed) {
  std::vector<ValidatorIndex> active;
  for (std::uint32_t i = 0; i < registry.size(); ++i) {
    const ValidatorIndex v{i};
    if (registry.is_active(v, epoch)) active.push_back(v);
  }
  if (active.empty()) {
    throw std::invalid_argument("duty_roster_scalar: no active validators");
  }

  crypto::Sha256 hs;
  hs.update("leak/duty-seed/v1");
  hs.update_value(base_seed);
  hs.update_value(epoch.value());
  const crypto::Digest seed = hs.finalize();

  RosterDuties duties;
  const std::uint64_t n = active.size();
  duties.committees.assign(kSlotsPerEpoch, {});
  const auto perm = shuffle_list(n, seed);
  for (std::uint64_t i = 0; i < n; ++i) {
    duties.committees[i % kSlotsPerEpoch].push_back(active[perm[i]]);
  }

  crypto::Sha256 hp;
  hp.update("leak/proposer-seed/v1");
  hp.update(std::span<const std::uint8_t>(seed.data(), seed.size()));
  const crypto::Digest pseed = hp.finalize();
  const auto pperm = shuffle_list(n, pseed);
  const auto max_balance = Gwei::from_eth(kInitialStakeEth);
  std::array<std::uint8_t, 48> msg{};
  std::copy(pseed.begin(), pseed.end(), msg.begin());
  const std::span<const std::uint8_t> offset_msg(msg.data(), 40);
  for (std::uint64_t pos = 0; pos < kSlotsPerEpoch; ++pos) {
    std::memcpy(msg.data() + 32, &pos, sizeof(pos));
    const std::uint64_t offset =
        crypto::short_id(crypto::sha256(offset_msg)) % n;
    ValidatorIndex chosen = active[pperm[offset]];
    for (std::uint64_t i = 0; i <= 10000; ++i) {
      const ValidatorIndex candidate = active[pperm[(offset + i) % n]];
      std::memcpy(msg.data() + 40, &i, sizeof(i));
      const std::uint8_t random_byte = crypto::sha256(msg)[0];
      const auto balance = registry.at(candidate).balance;
      if (static_cast<__uint128_t>(balance.value()) * 255 >=
          static_cast<__uint128_t>(max_balance.value()) * random_byte) {
        chosen = candidate;
        break;
      }
      ++duties.rejected_draws;
    }
    duties.proposers.push_back(chosen);
  }
  return duties;
}

}  // namespace leak::oracle
