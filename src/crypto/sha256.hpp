// SHA-256 (FIPS 180-4) implemented from scratch.  Used to give blocks and
// attestations content-addressed identities in the simulator.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace leak::crypto {

/// A 32-byte digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view data);
  /// Convenience for hashing trivially-copyable values (integers etc.).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Sha256& update_value(const T& v) {
    return update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)));
  }

  /// Finalize and return the digest.  The hasher must not be reused after.
  [[nodiscard]] Digest finalize();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// One-shot hash.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Digest sha256(std::string_view data);

/// Lowercase hex encoding of a digest.
[[nodiscard]] std::string to_hex(const Digest& d);

/// First 8 bytes of the digest as an integer (convenient short id).
[[nodiscard]] std::uint64_t short_id(const Digest& d);

}  // namespace leak::crypto
