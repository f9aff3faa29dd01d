// Batched one-block SHA-256: sixteen equal-length messages of at most
// 55 bytes compress side by side, one SIMD lane each.
//
// Compiled with the kernel flags (src/CMakeLists.txt): `omp simd`
// vectorizes the lane loop, and -march=native widens it on the host.
// Every operation is a 32-bit integer add, rotate, shift or logic op,
// exact at any vector width, so the digests are FIPS 180-4 whatever the
// ISA (held to the scalar hasher by test_crypto's differential tests).
#include <stdexcept>

#include "src/crypto/sha256.hpp"
#include "src/crypto/sha256_detail.hpp"

namespace leak::crypto {

namespace {

constexpr std::size_t kLanes = 16;
/// The longest message whose padding (0x80 and the 8-byte bit length)
/// still fits its one 64-byte block.
constexpr std::size_t kMaxOneBlock = 55;

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// Struct-of-arrays words: word t of lane l is [t][l].
struct alignas(64) LaneWords {
  std::uint32_t w[16][kLanes];
};
struct alignas(64) LaneState {
  std::uint32_t s[8][kLanes];
};

/// Compress one padded block per lane from the initial state.  The lane
/// loop carries the whole compression, so a..h and the 16-word rolling
/// schedule live in vector registers.
void compress_lanes(const LaneWords& in, LaneState& out) {
#pragma omp simd
  for (std::size_t l = 0; l < kLanes; ++l) {
    std::uint32_t w[16];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) w[i] = in.w[i][l];
    std::uint32_t a = kInit[0], b = kInit[1], c = kInit[2], d = kInit[3];
    std::uint32_t e = kInit[4], f = kInit[5], g = kInit[6], h = kInit[7];
#pragma GCC unroll 64
    for (int t = 0; t < 64; ++t) {
      if (t >= 16) {
        const std::uint32_t w15 = w[(t + 1) & 15];
        const std::uint32_t w2 = w[(t + 14) & 15];
        w[t & 15] += (rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3)) +
                     w[(t + 9) & 15] +
                     (rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10));
      }
      const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                               ((e & f) ^ (~e & g)) + kRound[t] + w[t & 15];
      const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                               ((a & b) ^ (a & c) ^ (b & c));
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    out.s[0][l] = a + kInit[0];
    out.s[1][l] = b + kInit[1];
    out.s[2][l] = c + kInit[2];
    out.s[3][l] = d + kInit[3];
    out.s[4][l] = e + kInit[4];
    out.s[5][l] = f + kInit[5];
    out.s[6][l] = g + kInit[6];
    out.s[7][l] = h + kInit[7];
  }
}

}  // namespace

void sha256_batch(const std::uint8_t* msgs, std::size_t len,
                  std::size_t stride, std::size_t count, Digest* out) {
  if (len > kMaxOneBlock) {
    throw std::invalid_argument(
        "sha256_batch: messages must be at most 55 bytes");
  }
  // Every message has the same length, so the padding is shared: 0x80
  // after the message, zeros, and the bit length in the last two bytes
  // (at most 440 bits).  Words past the message are set once; each lane
  // loads its `full` whole words and ORs its last len % 4 bytes into
  // the padding word that starts with them (word 13 at most).
  std::uint8_t pad[64] = {};
  pad[len] = 0x80;
  pad[62] = static_cast<std::uint8_t>((len * 8) >> 8);
  pad[63] = static_cast<std::uint8_t>(len * 8);
  const std::size_t full = len / 4;
  LaneWords in{};
  for (std::size_t i = full; i < 16; ++i) {
    const std::uint32_t v = load_be32(pad + 4 * i);
    for (std::size_t l = 0; l < kLanes; ++l) in.w[i][l] = v;
  }
  const std::uint32_t tail_pad = in.w[full][0];
  LaneState state;
  for (std::size_t first = 0; first < count; first += kLanes) {
    const std::size_t lanes = count - first < kLanes ? count - first : kLanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint8_t* m = msgs + (first + l) * stride;
      for (std::size_t i = 0; i < full; ++i) in.w[i][l] = load_be32(m + 4 * i);
      std::uint32_t tail = tail_pad;
      for (std::size_t b = 4 * full; b < len; ++b) {
        tail |= static_cast<std::uint32_t>(m[b]) << (24 - 8 * (b - 4 * full));
      }
      in.w[full][l] = tail;
    }
    compress_lanes(in, state);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::uint8_t* d = out[first + l].data();
      for (std::size_t i = 0; i < 8; ++i) store_be32(d + 4 * i, state.s[i][l]);
    }
  }
}

}  // namespace leak::crypto
