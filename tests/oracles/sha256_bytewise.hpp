// SHA-256 as it was before the one-step padding and the rolling
// schedule: the padding goes through update() one byte at a time and
// the compression expands the full 64-word schedule.  The live hasher
// (src/crypto/sha256.hpp) is held to it byte for byte.
//
// Do not "fix" or modernize this code: its value is that it does not
// change.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/crypto/sha256.hpp"

namespace leak::oracle {

class Sha256Bytewise {
 public:
  Sha256Bytewise();

  Sha256Bytewise& update(std::span<const std::uint8_t> data);

  /// Finalize and return the digest.  The hasher must not be reused after.
  [[nodiscard]] crypto::Digest finalize();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// One-shot hash through Sha256Bytewise.
[[nodiscard]] crypto::Digest sha256_bytewise(std::span<const std::uint8_t> data);

}  // namespace leak::oracle
