// CRC-32 (IEEE 802.3, the zlib polynomial) over byte strings.  Frames
// the append-only results-store records (src/serve/store.hpp) so a
// torn tail — a record cut short by a crash or kill -9 mid-write — is
// detected on scan instead of being half-parsed.  The polynomial
// matches Python's zlib.crc32, so tools/check_trajectory.py validates
// the same frames without a C++ helper.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace leak::crc32 {

namespace detail {

[[nodiscard]] consteval std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xedb88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kTable = make_table();

}  // namespace detail

/// CRC-32 of `data` (initial value 0, standard pre/post inversion).
[[nodiscard]] constexpr std::uint32_t of(std::string_view data) {
  std::uint32_t c = 0xffffffffU;
  for (const char ch : data) {
    c = detail::kTable[(c ^ static_cast<std::uint8_t>(ch)) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

/// Fixed-width lowercase hex of a CRC ("0000c0de").
[[nodiscard]] inline std::string to_hex(std::uint32_t crc) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[crc & 0xfU];
    crc >>= 4;
  }
  return out;
}

}  // namespace leak::crc32
