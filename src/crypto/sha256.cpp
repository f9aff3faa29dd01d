#include "src/crypto/sha256.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace leak::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

/// One round.  The caller rotates the roles of a..h between calls
/// instead of moving eight words: only d (the next e) and h (the next
/// a) change.
inline void step(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t& d, std::uint32_t e, std::uint32_t f,
                 std::uint32_t g, std::uint32_t& h, std::uint32_t kw) {
  const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                           ((e & f) ^ (~e & g)) + kw;
  const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                           ((a & b) ^ (a & c) ^ (b & c));
  d += t1;
  h = t1 + t2;
}

/// The compression function over one 64-byte block.  The message
/// schedule rolls through 16 words: before each group of 16 rounds
/// after the first, w[t] = w[t-16] + s0(w[t-15]) + w[t-7] + s1(w[t-2])
/// overwrites w[t-16] in place.
void compress(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int j = 0; j < 64; j += 16) {
    if (j > 0) {
      for (int i = 0; i < 16; ++i) {
        const std::uint32_t w15 = w[(i + 1) & 15];
        const std::uint32_t w2 = w[(i + 14) & 15];
        w[i] += (rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3)) +
                w[(i + 9) & 15] +
                (rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10));
      }
    }
    const std::uint32_t* k = kRound + j;
    step(a, b, c, d, e, f, g, h, k[0] + w[0]);
    step(h, a, b, c, d, e, f, g, k[1] + w[1]);
    step(g, h, a, b, c, d, e, f, k[2] + w[2]);
    step(f, g, h, a, b, c, d, e, k[3] + w[3]);
    step(e, f, g, h, a, b, c, d, k[4] + w[4]);
    step(d, e, f, g, h, a, b, c, k[5] + w[5]);
    step(c, d, e, f, g, h, a, b, k[6] + w[6]);
    step(b, c, d, e, f, g, h, a, k[7] + w[7]);
    step(a, b, c, d, e, f, g, h, k[8] + w[8]);
    step(h, a, b, c, d, e, f, g, k[9] + w[9]);
    step(g, h, a, b, c, d, e, f, k[10] + w[10]);
    step(f, g, h, a, b, c, d, e, k[11] + w[11]);
    step(e, f, g, h, a, b, c, d, k[12] + w[12]);
    step(d, e, f, g, h, a, b, c, k[13] + w[13]);
    step(c, d, e, f, g, h, a, b, k[14] + w[14]);
    step(b, c, d, e, f, g, h, a, k[15] + w[15]);
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

Sha256::Sha256() {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  assert(!finalized_);
  total_len_ += data.size();
  std::size_t off = 0;
  while (off < data.size()) {
    if (buffer_len_ == 0 && data.size() - off >= buffer_.size()) {
      // Whole blocks compress straight from the input.
      compress(state_.data(), data.data() + off);
      off += buffer_.size();
      continue;
    }
    const std::size_t take =
        std::min(data.size() - off, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data() + off, take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == buffer_.size()) {
      compress(state_.data(), buffer_.data());
      buffer_len_ = 0;
    }
  }
  return *this;
}

Sha256& Sha256::update(std::string_view data) {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Sha256::finalize() {
  assert(!finalized_);
  finalized_ = true;
  // Pad in one step: 0x80, zeros, and the bit length in the last eight
  // bytes, over one more block when the length no longer fits this one.
  std::uint8_t* block = buffer_.data();
  std::size_t len = buffer_len_;
  block[len++] = 0x80;
  if (len > 56) {
    std::memset(block + len, 0, 64 - len);
    compress(state_.data(), block);
    len = 0;
  }
  std::memset(block + len, 0, 56 - len);
  const std::uint64_t bit_len = total_len_ * 8;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_.data(), block);

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest sha256(std::string_view data) {
  return sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

std::string to_hex(const Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (auto byte : d) {
    out.push_back(hex[byte >> 4]);
    out.push_back(hex[byte & 0xf]);
  }
  return out;
}

std::uint64_t short_id(const Digest& d) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

}  // namespace leak::crypto
