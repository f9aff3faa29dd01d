// Simulated signature scheme.
//
// The paper's model only needs signatures to (a) identify the sender and
// (b) be unforgeable by other validators.  We simulate a BLS-like scheme
// on top of SHA-256: sig = H(secret || message).  Within the simulator
// nobody can produce another validator's signature without its secret,
// and verification recomputes the MAC.  This deliberately trades real
// asymmetric cryptography for determinism and speed while preserving the
// protocol-visible interface (sign / verify).
//
// No simulator signs or verifies: the slot simulator gets both
// properties by construction (it sets each attestation's sender itself,
// and no adversary forges a message).  Only perfbench's
// `crypto.sign_ns` / `crypto.verify_ns` probes use this scheme now.
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

/// A validator's signing key.
class KeyPair {
 public:
  /// Sign a message digest.
  [[nodiscard]] Signature sign(const Digest& message) const;

 private:
  friend class KeyRegistry;  // derives every keypair, keeps the secrets

  KeyPair(ValidatorIndex owner, Digest secret)
      : owner_(owner), secret_(secret) {}

  ValidatorIndex owner_;
  Digest secret_;
};

/// Registry of the validators' keys; verifies signatures.
class KeyRegistry {
 public:
  /// Deterministically derive keypairs for validators [0, n) from a
  /// seed; returns the keypairs (handed to agents) while retaining the
  /// secrets for verification.
  std::vector<KeyPair> generate(std::uint32_t n, std::uint64_t seed);

  /// Verify that `sig` is `who`'s signature over `message`.
  [[nodiscard]] bool verify(const Digest& message, const Signature& sig) const;

 private:
  std::vector<Digest> secrets_;  // retained so verify can recompute the MAC
};

}  // namespace leak::crypto
