// Tests for the strict parse helpers and the hardened env knobs:
// trailing garbage, overflow, and empty values are rejected with a
// diagnostic instead of silently truncated.
#include <gtest/gtest.h>

#include <cstdlib>

#include "src/support/env.hpp"
#include "src/support/parse.hpp"
#include "tests/path_scale.hpp"

namespace leak {
namespace {

TEST(ParseTest, U64Strict) {
  EXPECT_EQ(parse::u64("0"), 0u);
  EXPECT_EQ(parse::u64("18446744073709551615"), ~0ULL);
  EXPECT_EQ(parse::u64("  42\t"), 42u);  // surrounding blanks trimmed
  EXPECT_FALSE(parse::u64(""));
  EXPECT_FALSE(parse::u64("   "));
  EXPECT_FALSE(parse::u64("4x"));          // trailing garbage
  EXPECT_FALSE(parse::u64("4 2"));         // inner whitespace
  EXPECT_FALSE(parse::u64("-1"));          // strtoull would wrap this
  EXPECT_FALSE(parse::u64("+4"));
  EXPECT_FALSE(parse::u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse::u64("0x10"));
}

TEST(ParseTest, I64Strict) {
  EXPECT_EQ(parse::i64("-12"), -12);
  EXPECT_EQ(parse::i64("9223372036854775807"), 9223372036854775807LL);
  EXPECT_FALSE(parse::i64("9223372036854775808"));  // overflow
  EXPECT_FALSE(parse::i64("12.5"));
  EXPECT_FALSE(parse::i64(""));
}

TEST(ParseTest, RealStrict) {
  EXPECT_EQ(parse::real("0.25"), 0.25);
  EXPECT_EQ(parse::real("-1e3"), -1000.0);
  EXPECT_EQ(parse::real("33"), 33.0);
  EXPECT_FALSE(parse::real(""));
  EXPECT_FALSE(parse::real("1e3garbage"));
  EXPECT_FALSE(parse::real("nan"));
  EXPECT_FALSE(parse::real("inf"));
  EXPECT_FALSE(parse::real("1e999"));  // overflows to infinity
  EXPECT_FALSE(parse::real("0,5"));    // locale-style decimal comma
}

TEST(ParseTest, BooleanSpellings) {
  EXPECT_EQ(parse::boolean("true"), true);
  EXPECT_EQ(parse::boolean("1"), true);
  EXPECT_EQ(parse::boolean("yes"), true);
  EXPECT_EQ(parse::boolean("off"), false);
  EXPECT_EQ(parse::boolean("0"), false);
  EXPECT_FALSE(parse::boolean("True"));  // case-sensitive by design
  EXPECT_FALSE(parse::boolean("2"));
  EXPECT_FALSE(parse::boolean(""));
}

class EnvKnobTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("LEAK_TEST_KNOB"); }
};

TEST_F(EnvKnobTest, UnsetFallsBackSilently) {
  unsetenv("LEAK_TEST_KNOB");
  EXPECT_EQ(env::u64_or("LEAK_TEST_KNOB", 7), 7u);
  EXPECT_EQ(env::double_or("LEAK_TEST_KNOB", 0.5), 0.5);
}

TEST_F(EnvKnobTest, ValidValueWins) {
  setenv("LEAK_TEST_KNOB", "12", 1);
  EXPECT_EQ(env::u64_or("LEAK_TEST_KNOB", 7), 12u);
  setenv("LEAK_TEST_KNOB", "0.125", 1);
  EXPECT_EQ(env::double_or("LEAK_TEST_KNOB", 0.5), 0.125);
}

TEST_F(EnvKnobTest, TrailingGarbageRejectedWithDiagnostic) {
  // The old strtoull-based parser silently truncated "4x" to 4.
  setenv("LEAK_TEST_KNOB", "4x", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env::u64_or("LEAK_TEST_KNOB", 7), 7u);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("LEAK_TEST_KNOB"), std::string::npos) << err;
  EXPECT_NE(err.find("4x"), std::string::npos) << err;
}

TEST_F(EnvKnobTest, OverflowAndEmptyAndNegativeRejected) {
  ::testing::internal::CaptureStderr();
  setenv("LEAK_TEST_KNOB", "18446744073709551616", 1);
  EXPECT_EQ(env::u64_or("LEAK_TEST_KNOB", 3), 3u);
  setenv("LEAK_TEST_KNOB", "", 1);
  EXPECT_EQ(env::u64_or("LEAK_TEST_KNOB", 3), 3u);
  setenv("LEAK_TEST_KNOB", "-1", 1);
  EXPECT_EQ(env::u64_or("LEAK_TEST_KNOB", 3), 3u);
  setenv("LEAK_TEST_KNOB", "1e999", 1);
  EXPECT_EQ(env::double_or("LEAK_TEST_KNOB", 0.25), 0.25);
  (void)::testing::internal::GetCapturedStderr();
}

TEST_F(EnvKnobTest, PathScaleStillClamps) {
  setenv("LEAK_TEST_PATH_SCALE", "0.5", 1);
  EXPECT_EQ(env::test_path_scale(), 0.5);
  setenv("LEAK_TEST_PATH_SCALE", "99", 1);
  EXPECT_EQ(env::test_path_scale(), 1.0);
  setenv("LEAK_TEST_PATH_SCALE", "bogus", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env::test_path_scale(), 1.0);
  (void)::testing::internal::GetCapturedStderr();
  unsetenv("LEAK_TEST_PATH_SCALE");
  EXPECT_EQ(env::scaled_count(100), 100u);
}

}  // namespace
}  // namespace leak
