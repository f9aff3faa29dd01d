#include "src/crypto/keys.hpp"

namespace leak::crypto {

KeyPair KeyPair::derive(ValidatorIndex who, std::uint64_t seed) {
  Sha256 h;
  h.update("leak/keypair/v1");
  h.update_value(seed);
  h.update_value(who.value());
  const Digest secret = h.finalize();
  Sha256 hp;
  hp.update("leak/pubkey/v1");
  hp.update(std::span<const std::uint8_t>(secret.data(), secret.size()));
  return KeyPair{who, secret, hp.finalize()};
}

Signature KeyPair::sign(const Digest& message) const {
  Sha256 h;
  h.update("leak/sig/v1");
  h.update(std::span<const std::uint8_t>(secret_.data(), secret_.size()));
  h.update(std::span<const std::uint8_t>(message.data(), message.size()));
  return Signature{h.finalize(), owner_};
}

std::vector<KeyPair> KeyRegistry::generate(std::uint32_t n,
                                           std::uint64_t seed) {
  std::vector<KeyPair> pairs;
  pairs.reserve(n);
  public_keys_.clear();
  secrets_.clear();
  public_keys_.reserve(n);
  secrets_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KeyPair kp = KeyPair::derive(ValidatorIndex{i}, seed);
    public_keys_.push_back(kp.public_key());
    // Kept so verification can recompute MACs.  (A real registry would
    // verify with the public key; the simulated scheme is symmetric.)
    secrets_.push_back(kp.secret_);
    pairs.push_back(kp);
  }
  return pairs;
}

bool KeyRegistry::verify(const Digest& message, const Signature& sig) const {
  const auto idx = static_cast<std::size_t>(sig.signer.value());
  if (idx >= secrets_.size()) return false;
  Sha256 h;
  h.update("leak/sig/v1");
  h.update(std::span<const std::uint8_t>(secrets_[idx].data(),
                                         secrets_[idx].size()));
  h.update(std::span<const std::uint8_t>(message.data(), message.size()));
  return h.finalize() == sig.mac;
}

}  // namespace leak::crypto
