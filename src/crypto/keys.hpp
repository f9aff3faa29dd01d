// Simulated signature scheme.
//
// The paper's model only needs signatures to (a) identify the sender and
// (b) be unforgeable by other validators.  We simulate a BLS-like scheme
// on top of SHA-256: sig = H(secret || message).  Within the simulator
// nobody can produce another validator's signature without its secret,
// and verification recomputes the MAC.  This deliberately trades real
// asymmetric cryptography for determinism and speed while preserving the
// protocol-visible interface (sign / verify).
#pragma once

#include <cstdint>
#include <vector>

#include "src/crypto/sha256.hpp"
#include "src/support/types.hpp"

namespace leak::crypto {

/// Opaque signature: digest plus the signer for verification lookups.
struct Signature {
  Digest mac{};
  ValidatorIndex signer{};

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// A validator keypair.  The public key is H(secret).
class KeyPair {
 public:
  /// Deterministically derive the keypair for a validator from a seed.
  static KeyPair derive(ValidatorIndex who, std::uint64_t seed);

  [[nodiscard]] const Digest& public_key() const { return public_; }

  /// Sign a message digest.
  [[nodiscard]] Signature sign(const Digest& message) const;

 private:
  friend class KeyRegistry;  // keeps each secret to verify against

  KeyPair(ValidatorIndex owner, Digest secret, Digest pub)
      : owner_(owner), secret_(secret), public_(pub) {}

  ValidatorIndex owner_;
  Digest secret_;
  Digest public_;
};

/// Registry of public keys; verifies signatures.
class KeyRegistry {
 public:
  /// Create keypairs for validators [0, n) from a seed; returns the
  /// secret keypairs (handed to agents) while retaining public keys.
  std::vector<KeyPair> generate(std::uint32_t n, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return public_keys_.size(); }

  /// Verify that `sig` is `who`'s signature over `message`.
  [[nodiscard]] bool verify(const Digest& message, const Signature& sig) const;

 private:
  std::vector<Digest> public_keys_;
  std::vector<Digest> secrets_;  // retained so verify can recompute the MAC
};

}  // namespace leak::crypto
