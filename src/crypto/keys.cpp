#include "src/crypto/keys.hpp"

#include <cstring>
#include <string_view>

namespace leak::crypto {

Signature KeyPair::sign(const Digest& message) const {
  Sha256 h;
  h.update("leak/sig/v1");
  h.update(std::span<const std::uint8_t>(secret_.data(), secret_.size()));
  h.update(std::span<const std::uint8_t>(message.data(), message.size()));
  return Signature{h.finalize(), owner_};
}

std::vector<KeyPair> KeyRegistry::generate(std::uint32_t n,
                                           std::uint64_t seed) {
  // secret_i = H("leak/keypair/v1" || seed || i), the integers in
  // native byte order.  It fits one block, so this is one batch over all
  // n validators.
  constexpr std::string_view kSecretTag = "leak/keypair/v1";
  constexpr std::size_t kSecretMsg =
      kSecretTag.size() + sizeof(seed) + sizeof(std::uint32_t);
  std::vector<std::uint8_t> msgs(std::size_t{n} * kSecretMsg);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint8_t* msg = msgs.data() + std::size_t{i} * kSecretMsg;
    std::memcpy(msg, kSecretTag.data(), kSecretTag.size());
    std::memcpy(msg + kSecretTag.size(), &seed, sizeof(seed));
    std::memcpy(msg + kSecretTag.size() + sizeof(seed), &i, sizeof(i));
  }
  // Kept so verification can recompute MACs.  (A real registry would
  // verify with a public key; the simulated scheme is symmetric.)
  secrets_.resize(n);
  sha256_batch(msgs.data(), kSecretMsg, kSecretMsg, n, secrets_.data());
  std::vector<KeyPair> pairs;
  pairs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    pairs.push_back(KeyPair{ValidatorIndex{i}, secrets_[i]});
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
