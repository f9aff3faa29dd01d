// Tests for ScenarioSpec / ParamSet: typed parameters, defaults,
// range/choice validation, key=value parsing, and JSON round-trips
// with unknown-key rejection.
#include <gtest/gtest.h>

#include <string>

#include "src/scenario/spec.hpp"
#include "src/support/json.hpp"

namespace leak::scenario {
namespace {

ScenarioSpec demo_spec() {
  ScenarioSpec spec("demo", "a demo scenario");
  spec.add_int("paths", "trials", 64, 1, 100000)
      .add_double("beta0", "byzantine proportion", 0.33, 0.0, 0.5)
      .add_bool("exact", "use exact dynamics", true)
      .add_string("strategy", "byzantine strategy", "honest",
                  {"honest", "slashable", "semiactive"})
      .add_int("seed", "rng seed", 7)
      .add_int("threads", "workers", 0, 0, 1024);
  return spec;
}

TEST(ScenarioSpecTest, DefaultsCoverEveryParam) {
  const auto spec = demo_spec();
  const ParamSet d = spec.defaults();
  EXPECT_EQ(d.get_int("paths"), 64);
  EXPECT_EQ(d.get_double("beta0"), 0.33);
  EXPECT_TRUE(d.get_bool("exact"));
  EXPECT_EQ(d.get_string("strategy"), "honest");
  EXPECT_FALSE(spec.validate(d).has_value());
}

TEST(ScenarioSpecTest, TypedGettersEnforceTypes) {
  const ParamSet d = demo_spec().defaults();
  EXPECT_THROW((void)d.get_int("beta0"), std::logic_error);
  EXPECT_THROW((void)d.get_string("paths"), std::logic_error);
  EXPECT_THROW((void)d.get_int("nonexistent"), std::out_of_range);
  // get_double widens int parameters.
  EXPECT_EQ(d.get_double("paths"), 64.0);
}

TEST(ScenarioSpecTest, ApplyKvParsesStrictly) {
  const auto spec = demo_spec();
  ParamSet p = spec.defaults();
  EXPECT_FALSE(spec.apply_kv("paths=128", &p).has_value());
  EXPECT_FALSE(spec.apply_kv("beta0=0.25", &p).has_value());
  EXPECT_FALSE(spec.apply_kv("exact=false", &p).has_value());
  EXPECT_FALSE(spec.apply_kv("strategy=slashable", &p).has_value());
  EXPECT_EQ(p.get_int("paths"), 128);
  EXPECT_EQ(p.get_double("beta0"), 0.25);
  EXPECT_FALSE(p.get_bool("exact"));
  EXPECT_EQ(p.get_string("strategy"), "slashable");

  // Malformed assignments are rejected with a message.
  for (const char* bad :
       {"paths=12x", "paths=", "beta0=0,5", "exact=maybe", "nope=1",
        "paths", "=4"}) {
    const auto err = spec.apply_kv(bad, &p);
    EXPECT_TRUE(err.has_value()) << bad;
  }
}

TEST(ScenarioSpecTest, RangeAndChoiceValidation) {
  const auto spec = demo_spec();
  ParamSet p = spec.defaults();
  EXPECT_TRUE(spec.apply_kv("paths=0", &p).has_value());      // below min
  EXPECT_TRUE(spec.apply_kv("beta0=0.6", &p).has_value());    // above max
  EXPECT_TRUE(spec.apply_kv("strategy=bogus", &p).has_value());
  // validate() catches hand-built out-of-range values too.
  ParamSet q = spec.defaults();
  q.set("beta0", 2.0);
  const auto err = spec.validate(q);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("beta0"), std::string::npos);
}

TEST(ScenarioSpecTest, ValidateRejectsUnknownAndMissingAndWrongType) {
  const auto spec = demo_spec();
  ParamSet p = spec.defaults();
  p.set("mystery", std::int64_t{1});
  EXPECT_TRUE(spec.validate(p).has_value());

  ParamSet wrong = spec.defaults();
  wrong.set("paths", 0.5);  // double into an int slot
  EXPECT_TRUE(spec.validate(wrong).has_value());

  ParamSet missing;
  missing.set("paths", std::int64_t{4});
  const auto err = spec.validate(missing);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("missing"), std::string::npos);
}

TEST(ScenarioSpecTest, DuplicateParamThrows) {
  ScenarioSpec spec("dup", "x");
  spec.add_int("a", "", 1);
  EXPECT_THROW(spec.add_double("a", "", 2.0), std::invalid_argument);
}

TEST(ScenarioSpecTest, ParamsFromJsonValidatesAndFillsDefaults) {
  const auto spec = demo_spec();
  std::string error;
  const auto doc = json::Value::parse("{\"paths\":256,\"beta0\":0.1}");
  ASSERT_TRUE(doc.has_value());
  const auto p = spec.params_from_json(*doc, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_EQ(p->get_int("paths"), 256);
  EXPECT_EQ(p->get_double("beta0"), 0.1);
  EXPECT_EQ(p->get_string("strategy"), "honest");  // default filled

  const auto unknown = json::Value::parse("{\"pathz\":256}");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_FALSE(spec.params_from_json(*unknown, &error).has_value());
  EXPECT_NE(error.find("pathz"), std::string::npos);

  const auto out_of_range = json::Value::parse("{\"beta0\":0.9}");
  ASSERT_TRUE(out_of_range.has_value());
  EXPECT_FALSE(spec.params_from_json(*out_of_range, &error).has_value());
}

TEST(ScenarioSpecTest, ParamSetJsonUsesNativeTypes) {
  const auto d = demo_spec().defaults();
  const auto j = d.to_json();
  EXPECT_TRUE(j.find("paths")->is_int());
  EXPECT_TRUE(j.find("beta0")->is_double());
  EXPECT_TRUE(j.find("exact")->is_bool());
  EXPECT_TRUE(j.find("strategy")->is_string());
}

}  // namespace
}  // namespace leak::scenario
