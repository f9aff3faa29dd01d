// Tests for SHA-256 (against FIPS vectors), the simulated signature
// scheme and aggregation.
#include <gtest/gtest.h>

#include "src/crypto/keys.hpp"
#include "src/crypto/sha256.hpp"

namespace leak::crypto {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(to_hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(h.finalize(), sha256("hello world"));
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-second-block path.
  const std::string m(64, 'x');
  Sha256 h;
  h.update(m);
  EXPECT_EQ(h.finalize(), sha256(m));
  // 55/56/57 bytes bracket the length-field boundary.
  for (std::size_t len : {55u, 56u, 57u, 63u, 65u}) {
    const std::string s(len, 'y');
    Sha256 h2;
    h2.update(s);
    EXPECT_EQ(h2.finalize(), sha256(s)) << len;
  }
}

TEST(Sha256Test, ShortIdIsPrefix) {
  const Digest d = sha256("abc");
  const std::uint64_t id = short_id(d);
  EXPECT_EQ(id >> 56, d[0]);
  EXPECT_EQ((id >> 48) & 0xff, d[1]);
}

TEST(Keys, DeterministicDerivation) {
  const auto a = KeyPair::derive(ValidatorIndex{3}, 42);
  const auto b = KeyPair::derive(ValidatorIndex{3}, 42);
  EXPECT_EQ(a.public_key(), b.public_key());
  const auto c = KeyPair::derive(ValidatorIndex{4}, 42);
  EXPECT_NE(a.public_key(), c.public_key());
}

TEST(Keys, SignVerifyRoundTrip) {
  KeyRegistry reg;
  const auto pairs = reg.generate(8, 7);
  const Digest msg = sha256("attestation");
  const Signature sig = pairs[5].sign(msg);
  EXPECT_TRUE(reg.verify(msg, sig));
}

TEST(Keys, WrongMessageRejected) {
  KeyRegistry reg;
  const auto pairs = reg.generate(4, 7);
  const Signature sig = pairs[1].sign(sha256("m1"));
  EXPECT_FALSE(reg.verify(sha256("m2"), sig));
}

TEST(Keys, ForgedSignerRejected) {
  KeyRegistry reg;
  const auto pairs = reg.generate(4, 7);
  Signature sig = pairs[1].sign(sha256("m"));
  sig.signer = ValidatorIndex{2};  // claim someone else's identity
  EXPECT_FALSE(reg.verify(sha256("m"), sig));
}

TEST(Keys, UnknownSignerRejected) {
  KeyRegistry reg;
  const auto pairs = reg.generate(2, 7);
  Signature sig = pairs[0].sign(sha256("m"));
  sig.signer = ValidatorIndex{99};
  EXPECT_FALSE(reg.verify(sha256("m"), sig));
}

}  // namespace
}  // namespace leak::crypto
