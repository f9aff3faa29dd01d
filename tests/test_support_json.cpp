// Tests for the JSON document model: serializer/parser round-trips,
// strictness, and error reporting.
#include <gtest/gtest.h>

#include <string>

#include "src/support/json.hpp"
#include "tests/oracles/yardsticks.hpp"

namespace leak::json {
namespace {

TEST(JsonTest, ScalarDump) {
  EXPECT_EQ(Value(nullptr).dump(), "null");
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(42).dump(), "42");
  EXPECT_EQ(Value(-7).dump(), "-7");
  EXPECT_EQ(Value(0.33).dump(), "0.33");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Value obj = Value::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  // Overwrite keeps the original position.
  obj.set("zebra", 9);
  EXPECT_EQ(obj.dump(), "{\"zebra\":9,\"alpha\":2,\"mid\":3}");
}

TEST(JsonTest, StringEscaping) {
  EXPECT_EQ(Value("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(Value(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(JsonTest, RoundTripComplexDocument) {
  Value doc = Value::object();
  doc.set("name", "bouncing-mc");
  doc.set("paths", 4000);
  doc.set("beta0", 0.33);
  doc.set("flag", true);
  Value arr = Value::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("three");
  arr.push_back(nullptr);
  doc.set("list", std::move(arr));
  Value inner = Value::object();
  inner.set("k", -12);
  doc.set("inner", std::move(inner));

  for (const int indent : {-1, 0, 2}) {
    const auto parsed = Value::parse(doc.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
    EXPECT_TRUE(oracle::json_equal(*parsed, doc)) << "indent " << indent;
  }
}

TEST(JsonTest, DoubleRoundTripIsExact) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 4024.0}) {
    const auto parsed = Value::parse(Value(v).dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->as_double(), v);
  }
}

TEST(JsonTest, ParseDistinguishesIntAndDouble) {
  const auto a = Value::parse("[7, 7.0, -3, 1e2]");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->at(0).is_int());
  EXPECT_TRUE(a->at(1).is_double());
  EXPECT_TRUE(a->at(2).is_int());
  EXPECT_TRUE(a->at(3).is_double());
  EXPECT_EQ(a->at(0).as_int(), 7);
  EXPECT_EQ(a->at(3).as_double(), 100.0);
}

TEST(JsonTest, ParseUnicodeEscapes) {
  const auto v = Value::parse("\"a\\u00e9\\ud83d\\ude00z\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\xc3\xa9\xf0\x9f\x98\x80z");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "01x", "\"unterminated",
        "[1] trailing", "{\"a\":1,\"a\":2}", "\"\\ud800\"", "nan",
        "{\"a\" 1}", "[1 2]", "01", "-007", "[0.5, 00.5]"}) {
    EXPECT_FALSE(Value::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonTest, ParseReportsByteOffset) {
  std::string error;
  EXPECT_FALSE(Value::parse("[1, 2, x]", &error).has_value());
  EXPECT_NE(error.find("byte 7"), std::string::npos) << error;
}

TEST(JsonTest, TypeMismatchThrows) {
  const Value v(42);
  EXPECT_THROW((void)v.as_string(), std::logic_error);
  EXPECT_THROW((void)v.as_array(), std::logic_error);
  EXPECT_THROW((void)Value("s").as_int(), std::logic_error);
  // as_double widens ints by design.
  EXPECT_EQ(v.as_double(), 42.0);
}

TEST(JsonTest, DeepNestingRejected) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Value::parse(deep).has_value());
  // Sane depth still fine.
  std::string ok(30, '[');
  ok += std::string(30, ']');
  EXPECT_TRUE(Value::parse(ok).has_value());
}

TEST(JsonTest, PrettyPrintShape) {
  Value obj = Value::object();
  obj.set("a", 1);
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1\n}");
}

}  // namespace
}  // namespace leak::json
