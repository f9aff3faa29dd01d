// Tests for the JSON document model: serializer/parser round-trips,
// strictness, and error reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <functional>
#include <limits>
#include <regex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/faults/schedule.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/sweep.hpp"
#include "src/serve/job.hpp"
#include "src/support/json.hpp"
#include "src/support/parse.hpp"
#include "src/support/random.hpp"
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
  using limits = std::numeric_limits<double>;
  for (const double v :
       {0.1, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 4024.0, limits::infinity(),
        -limits::infinity(), limits::max(), -limits::max(), limits::min(),
        limits::denorm_min(), 1e-310}) {
    const auto parsed = Value::parse(Value(v).dump());
    ASSERT_TRUE(parsed.has_value()) << Value(v).dump();
    ASSERT_TRUE(parsed->is_double()) << Value(v).dump();
    EXPECT_EQ(parsed->as_double(), v) << Value(v).dump();
    EXPECT_EQ(std::signbit(parsed->as_double()), std::signbit(v));
  }
  // JSON has no infinity or NaN: +-inf dump as literals past the double
  // range, and NaN as null.
  EXPECT_EQ(Value(limits::infinity()).dump(), "1e999");
  EXPECT_EQ(Value(-limits::infinity()).dump(), "-1e999");
  EXPECT_EQ(Value(limits::quiet_NaN()).dump(), "null");
  EXPECT_EQ(format_double(limits::quiet_NaN()), "null");
}

TEST(JsonTest, LiteralsPastTheDoubleRangeSaturate) {
  using limits = std::numeric_limits<double>;
  const auto a = Value::parse(
      "[1e400, -1E+400, 0.000001e999, 123456789e308, 1e-400, -1e-400, "
      "100000e-330, 1e99999999999999999999]");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->at(0).as_double(), limits::infinity());
  EXPECT_EQ(a->at(1).as_double(), -limits::infinity());
  EXPECT_EQ(a->at(2).as_double(), limits::infinity());
  EXPECT_EQ(a->at(3).as_double(), limits::infinity());
  EXPECT_EQ(a->at(4).as_double(), 0.0);
  EXPECT_FALSE(std::signbit(a->at(4).as_double()));
  EXPECT_EQ(a->at(5).as_double(), 0.0);
  EXPECT_TRUE(std::signbit(a->at(5).as_double()));
  EXPECT_EQ(a->at(6).as_double(), 0.0);
  EXPECT_EQ(a->at(7).as_double(), limits::infinity());
  // An integer past int64 still reads as a double.
  const auto big = Value::parse("-99999999999999999999");
  ASSERT_TRUE(big.has_value());
  EXPECT_TRUE(big->is_double());
  EXPECT_EQ(big->as_double(), -1e20);
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
        "{\"a\" 1}", "[1 2]", "01", "-007", "[0.5, 00.5]", ".5", "0.",
        "1.e5", "-", "-.5", "+1", "1e", "1e+", "[1.]", "{\"a\":.5}"}) {
    EXPECT_FALSE(Value::parse(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find(" at byte "), std::string::npos) << bad;
  }
  // RFC 8259 §6 number grammar: the offset names the number's first byte.
  EXPECT_FALSE(Value::parse("[1, 0.]", &error).has_value());
  EXPECT_NE(error.find("invalid number at byte 4"), std::string::npos)
      << error;
  EXPECT_FALSE(Value::parse("[1.e5]", &error).has_value());
  EXPECT_NE(error.find("invalid number at byte 1"), std::string::npos)
      << error;
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

TEST(JsonTest, NodeHoldsOnlyItsOwnKind) {
  // A type tag plus the largest member: no empty string, array and
  // object ride along with every scalar.
  EXPECT_LE(sizeof(Value),
            std::max({sizeof(std::string), sizeof(Array), sizeof(Object)}) +
                alignof(Value));
}

TEST(JsonTest, CopyMoveAndAssignKeepValues) {
  Value doc = Value::object();
  doc.set("s", std::string(40, 'x'));  // past any small-string buffer
  Value list = Value::array();
  list.push_back(1);
  list.push_back("two");
  doc.set("list", list);
  const std::string want = doc.dump();

  Value copy = doc;
  EXPECT_EQ(copy.dump(), want);
  Value moved = std::move(copy);
  EXPECT_EQ(moved.dump(), want);
  EXPECT_TRUE(copy.is_object());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.size(), 0u);     // NOLINT(bugprone-use-after-move)

  // Assigning across kinds, and from a node that lives inside the
  // target, replaces the target without reading freed storage.
  Value v = 3.5;
  v = doc;
  EXPECT_EQ(v.dump(), want);
  v = Value("str");
  EXPECT_EQ(v.dump(), "\"str\"");
  Value& inner = doc.set("inner", list);
  doc = std::move(inner);
  EXPECT_EQ(doc.dump(), "[1,\"two\"]");
  Value nested = Value::object();
  nested.set("k", list);
  nested = *nested.find("k");
  EXPECT_EQ(nested.dump(), "[1,\"two\"]");
}

// Committed JSON is written by dump(2) plus a newline, so each file must
// be a fixed point of parse then dump: this pins dump's bytes in ctest.
TEST(JsonTest, ReadingADirectoryFailsCleanly) {
  // A directory opens as a stream but its length is not a file size:
  // the read must fail, not size a buffer to it.
  const std::string dir = ::testing::TempDir();
  std::string text;
  EXPECT_FALSE(read_file(dir, &text));
  std::string error;
  EXPECT_FALSE(Value::load_file(dir, &error).has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

TEST(JsonBaselines, CommittedJsonIsADumpFixedPoint) {
  const std::filesystem::path dir =
      std::filesystem::path(LEAK_SOURCE_DIR) / "bench" / "baselines";
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::string text;
    ASSERT_TRUE(read_file(entry.path().string(), &text)) << entry.path();
    std::string error;
    const auto doc = Value::parse(text, &error);
    ASSERT_TRUE(doc.has_value()) << entry.path() << ": " << error;
    EXPECT_EQ(doc->dump(2) + "\n", text) << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 13u);
}

// Seeded mutation harness over the committed JSON and random documents
// (nesting, escapes, special doubles): byte flips, truncation, splicing
// and token insertion.  Every input either parses to a value v with
// dump(parse(dump(v))) == dump(v) and every type kept, or fails with a
// message naming a byte offset inside the input.
std::string random_string(Rng& rng) {
  static const char* const kPieces[] = {
      "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\x01", "\x1f",
      "\x7f", "\xc3\xa9", "\xf0\x9f\x98\x80", "key", "\\u"};
  std::string out;
  const auto n = rng.uniform_index(8);
  for (std::uint64_t i = 0; i < n; ++i) {
    out += kPieces[rng.uniform_index(std::size(kPieces))];
  }
  return out;
}

double random_double(Rng& rng) {
  using limits = std::numeric_limits<double>;
  static const double kSpecial[] = {
      limits::infinity(), -limits::infinity(), -0.0,   0.0,
      limits::max(),      -limits::max(),      limits::min(),
      limits::denorm_min(), 1e-310, 0.1, 4024.0, 1e21};
  if (rng.bernoulli(0.4)) {
    return kSpecial[rng.uniform_index(std::size(kSpecial))];
  }
  double d = 0.0;
  do {  // any bit pattern but NaN, which dumps as null by design
    const std::uint64_t bits = rng();
    std::memcpy(&d, &bits, sizeof d);
  } while (std::isnan(d));
  return d;
}

Value random_value(Rng& rng, int depth) {
  switch (rng.uniform_index(depth >= 4 ? 5 : 7)) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(rng.bernoulli(0.5));
    case 2: {
      if (rng.bernoulli(0.05)) {
        return Value(std::numeric_limits<std::int64_t>::min());
      }
      const auto i =
          static_cast<std::int64_t>(rng() >> (1 + rng.uniform_index(63)));
      return Value(rng.bernoulli(0.5) ? i : -i);
    }
    case 3:
      return Value(random_double(rng));
    case 4:
      return Value(random_string(rng));
    case 5: {
      Array elems(rng.uniform_index(5));
      for (Value& e : elems) e = random_value(rng, depth + 1);
      return Value(std::move(elems));
    }
    default: {
      Value obj = Value::object();
      const auto n = rng.uniform_index(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        obj.set(random_string(rng) + std::to_string(i),
                random_value(rng, depth + 1));
      }
      return obj;
    }
  }
}

std::string mutate(const std::string& s, const std::string& other,
                   Rng& rng) {
  static const char* const kTokens[] = {
      "1e999", "-1e999", "-0",     ".5",   "0.",   "1.e5",  "1e-400",
      "99999999999999999999",      "[",    "]",    "{",     "}",
      ",",     ":",      "\"",     "null", "tru",  "\\u", "\\ud800",
      "\\uDC00", " "};
  std::string m = s;
  const auto at = [&] { return rng.uniform_index(m.size() + 1); };
  switch (rng.uniform_index(5)) {
    case 0:  // overwrite up to three bytes
      for (int k = 0; k < 3 && !m.empty(); ++k) {
        m[rng.uniform_index(m.size())] = static_cast<char>(rng());
      }
      break;
    case 1:  // flip one bit
      if (!m.empty()) {
        m[rng.uniform_index(m.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
      }
      break;
    case 2:  // truncate
      m.resize(at());
      break;
    case 3:  // splice a prefix onto another document's suffix
      m = m.substr(0, at()) +
          other.substr(rng.uniform_index(other.size() + 1));
      break;
    default:  // insert a token
      m.insert(at(), kTokens[rng.uniform_index(std::size(kTokens))]);
  }
  return m;
}

/// The harness property for one input.  Returns true when it parsed.
bool check(const std::string& input) {
  std::string error;
  const auto v = Value::parse(input, &error);
  if (!v) {
    const auto at = error.rfind(" at byte ");
    EXPECT_NE(at, std::string::npos) << error;
    if (at != std::string::npos) {
      EXPECT_LE(std::stoull(error.substr(at + 9)), input.size()) << error;
    }
    return false;
  }
  const std::string once = v->dump();
  for (const std::string& text : {once, v->dump(2)}) {
    const auto again = Value::parse(text, &error);
    EXPECT_TRUE(again.has_value()) << text << ": " << error;
    if (!again) continue;
    EXPECT_EQ(again->dump(), once);
    EXPECT_TRUE(oracle::json_equal(*again, *v)) << text;
  }
  return true;
}

TEST(JsonMutation, SeededInputsRoundTripOrFailWithAnOffset) {
  std::vector<std::string> corpus;
  const std::filesystem::path root(LEAK_SOURCE_DIR);
  for (const auto& dir : {root / "bench" / "baselines",
                          root / "examples" / "schedules"}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".json") continue;
      ASSERT_TRUE(read_file(entry.path().string(), &corpus.emplace_back()));
    }
  }
  ASSERT_EQ(corpus.size(), 15u);
  Rng rng(20261017);
  for (int i = 0; i < 2000; ++i) {
    const Value v = random_value(rng, 0);
    corpus.push_back(rng.bernoulli(0.5) ? v.dump() : v.dump(2));
    ASSERT_TRUE(check(corpus.back())) << corpus.back();
  }
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const int rounds = i < 15 ? 250 : 4;
    for (int k = 0; k < rounds; ++k) {
      const std::string& other = corpus[rng.uniform_index(corpus.size())];
      (check(mutate(corpus[i], other, rng)) ? parsed : rejected) += 1;
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// --- The typed layer: the documents users write, read through
// json::Fields by their own from_json.

/// One typed document kind: from_json then to_json, or nullopt with
/// the rejection message.
using TypedRead = std::function<std::optional<Value>(const Value&,
                                                     std::string*)>;

/// Replace one node with an edge value or a random one; an object
/// node may instead lose a member, get a misspelt key or gain one.
Value mutate_node(const Value& v, Rng& rng) {
  if (v.is_object() && v.size() > 0 && rng.bernoulli(0.5)) {
    const auto pick = rng.uniform_index(v.size());
    const auto action = rng.uniform_index(3);
    Value out = Value::object();
    for (std::size_t i = 0; i < v.size(); ++i) {
      const auto& [key, member] = v.as_object()[i];
      if (i != pick) {
        out.set(key, member);
      } else if (action == 1) {
        out.set(key + "x", member);
      } else if (action == 2) {
        out.set(key, member);
        out.set("extra", member);
      }
    }
    return out;
  }
  static const Value kEdge[] = {
      Value(0),
      Value(-1),
      Value(1),
      Value(255),
      Value(256),
      Value(std::int64_t{4294967295}),
      Value(std::int64_t{4294967296}),
      Value(std::numeric_limits<std::int64_t>::max()),
      Value(0.5),
      Value(-0.0),
      Value(std::numeric_limits<double>::infinity()),
      Value(""),
      Value("all"),
      Value(true),
      Value(nullptr),
  };
  return rng.bernoulli(0.7) ? kEdge[rng.uniform_index(std::size(kEdge))]
                            : random_value(rng, 3);
}

/// Copy `v` with node number *countdown (pre-order) mutated.
Value mutate_tree(const Value& v, Rng& rng, std::uint64_t* countdown) {
  if ((*countdown)-- == 0) return mutate_node(v, rng);
  if (v.is_array()) {
    Array out;
    for (const Value& e : v.as_array()) {
      out.push_back(mutate_tree(e, rng, countdown));
    }
    return Value(std::move(out));
  }
  if (v.is_object()) {
    Value out = Value::object();
    for (const auto& [key, member] : v.as_object()) {
      out.set(key, mutate_tree(member, rng, countdown));
    }
    return out;
  }
  return v;
}

std::uint64_t node_count(const Value& v) {
  std::uint64_t n = 1;
  if (v.is_array()) {
    for (const Value& e : v.as_array()) n += node_count(e);
  } else if (v.is_object()) {
    for (const auto& [key, member] : v.as_object()) n += node_count(member);
  }
  return n;
}

/// The typed property for one parsed document.  Returns true when it
/// was accepted.
bool check_typed(const TypedRead& read, const Value& doc) {
  // "schedule.events[3].epoch: ...", "manifest: ...", "axes[0]: ...".
  static const std::regex kPathPrefix(R"(^[A-Za-z_]\w*(\.\w+|\[\d+\])*: )");
  std::string error;
  const auto once = read(doc, &error);
  if (!once) {
    EXPECT_TRUE(std::regex_search(error, kPathPrefix))
        << doc.dump() << " -> " << error;
    return false;
  }
  const auto text = once->dump();
  const auto reparsed = Value::parse(text);
  EXPECT_TRUE(reparsed.has_value()) << text;
  if (!reparsed) return true;
  const auto twice = read(*reparsed, &error);
  EXPECT_TRUE(twice.has_value()) << text << " -> " << error;
  if (twice) {
    EXPECT_EQ(twice->dump(), text) << doc.dump();
  }
  return true;
}

TEST(JsonMutation, TypedDocumentsRoundTripOrFailWithAPath) {
  const auto& registry = scenario::builtin_registry();
  scenario::ScenarioSpec spec("typed", "every parameter type");
  spec.add_int("paths", "", 64, 1, 1e6)
      .add_double("beta0", "", 0.2, 0.0, 0.5)
      .add_bool("exact", "", false)
      .add_string("strategy", "", "honest", {"honest", "semiactive"});

  const TypedRead schedule = [](const Value& v, std::string* error) {
    try {
      return std::optional<Value>(
          faults::FaultSchedule::from_json(v).to_json());
    } catch (const std::invalid_argument& e) {
      *error = e.what();
      return std::optional<Value>();
    }
  };
  const TypedRead manifest = [&registry](const Value& v, std::string* error) {
    const auto job = serve::JobSpec::from_json(registry, v, error);
    return job ? std::optional<Value>(job->to_json()) : std::nullopt;
  };
  const TypedRead params = [&spec](const Value& v, std::string* error) {
    const auto set = spec.params_from_json(v, error);
    return set ? std::optional<Value>(set->to_json()) : std::nullopt;
  };

  serve::JobSpec job;
  job.scenario = "bouncing-mc";
  job.base = registry.find("bouncing-mc")->spec().defaults();
  for (const char* axis_text : {"beta0=0.3,0.33", "paths=16,32"}) {
    scenario::SweepAxis axis;
    ASSERT_FALSE(scenario::parse_sweep_axis(
        registry.find("bouncing-mc")->spec(), axis_text, &axis));
    job.axes.push_back(std::move(axis));
  }
  job.config.workers = 3;

  struct Seed {
    const TypedRead* read;
    std::string text;
  };
  std::vector<Seed> seeds;
  const std::filesystem::path schedules =
      std::filesystem::path(LEAK_SOURCE_DIR) / "examples" / "schedules";
  for (const char* name : {"cascade.json", "flaky.json"}) {
    ASSERT_TRUE(read_file((schedules / name).string(),
                          &seeds.emplace_back(Seed{&schedule, ""}).text));
  }
  seeds.push_back({&manifest, job.to_json().dump(2)});
  seeds.push_back({&params, spec.defaults().to_json().dump()});

  Rng rng(20261018);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const Seed& seed : seeds) {
    const auto doc = Value::parse(seed.text);
    ASSERT_TRUE(doc.has_value()) << seed.text;
    ASSERT_TRUE(check_typed(*seed.read, *doc)) << seed.text;
    for (int k = 0; k < 500; ++k) {
      // Byte-level mutations that still parse, then tree-level ones.
      const Seed& other = seeds[rng.uniform_index(seeds.size())];
      if (const auto m = Value::parse(mutate(seed.text, other.text, rng))) {
        (check_typed(*seed.read, *m) ? accepted : rejected) += 1;
      }
      std::uint64_t countdown = rng.uniform_index(node_count(*doc));
      const Value tree = mutate_tree(*doc, rng, &countdown);
      (check_typed(*seed.read, tree) ? accepted : rejected) += 1;
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

// --- The command-line texts: --set assignments (ScenarioSpec::apply_kv)
// and --sweep/--axis axes (parse_sweep_axis), seeded from every
// registered scenario's params and mutated the same way.

/// The error names the input's key, its value text or the whole input.
bool names_input(const std::string& error, std::string_view input) {
  const auto eq = input.find('=');
  const auto quoted = [&](std::string_view part) {
    return error.find("\"" + std::string(part) + "\"") != std::string::npos;
  };
  return quoted(input) ||
         (eq != std::string_view::npos &&
          (quoted(parse::trim(input.substr(0, eq))) ||
           quoted(input.substr(eq + 1))));
}

/// --set property: either exactly the key changes, to a value that
/// re-applies to itself through value_to_string and validates, or the
/// error names the input and the ParamSet is untouched.
bool check_set(const scenario::ScenarioSpec& spec,
               const scenario::ParamSet& base, const std::string& kv) {
  scenario::ParamSet set = base;
  if (const auto err = spec.apply_kv(kv, &set)) {
    EXPECT_EQ(set.to_json().dump(), base.to_json().dump())
        << spec.name() << ": " << kv;
    EXPECT_TRUE(names_input(*err, kv)) << kv << " -> " << *err;
    return false;
  }
  const std::string key(parse::trim(kv.substr(0, kv.find('='))));
  const scenario::ParamValue* v = set.find(key);
  EXPECT_NE(v, nullptr) << kv;
  if (v == nullptr) return true;
  scenario::ParamSet again = base;
  const std::string rendered =
      key + "=" + scenario::ParamSet::value_to_string(*v);
  const auto err = spec.apply_kv(rendered, &again);
  EXPECT_FALSE(err) << kv << " -> " << rendered << ": " << *err;
  EXPECT_EQ(again.to_json().dump(), set.to_json().dump())
      << kv << " -> " << rendered;
  again.set(key, *base.find(key));
  EXPECT_EQ(again.to_json().dump(), base.to_json().dump())
      << kv << " changed more than " << key;
  EXPECT_FALSE(spec.validate(set)) << kv;
  return true;
}

/// --sweep/--axis property: either the axis re-parses to itself from
/// its rendered comma list, every value validating in a cell, or the
/// error names the input and the output axis is untouched.
bool check_sweep(const scenario::ScenarioSpec& spec,
                 const std::string& text) {
  scenario::SweepAxis axis;
  axis.param = "untouched";
  if (const auto err = scenario::parse_sweep_axis(spec, text, &axis)) {
    EXPECT_EQ(axis.param, "untouched") << text;
    EXPECT_TRUE(axis.values.empty()) << text;
    EXPECT_TRUE(names_input(*err, text)) << text << " -> " << *err;
    return false;
  }
  std::string rendered = axis.param + "=";
  for (std::size_t i = 0; i < axis.values.size(); ++i) {
    rendered += (i == 0 ? "" : ",") +
                scenario::ParamSet::value_to_string(axis.values[i]);
  }
  scenario::SweepAxis again;
  const auto err = scenario::parse_sweep_axis(spec, rendered, &again);
  EXPECT_FALSE(err) << text << " -> " << rendered << ": " << *err;
  EXPECT_EQ(again.param, axis.param) << text;
  EXPECT_TRUE(again.values == axis.values) << text << " -> " << rendered;
  scenario::ParamSet cell = spec.defaults();
  for (const auto& v : axis.values) {
    cell.set(axis.param, v);
    EXPECT_FALSE(spec.validate(cell)) << text;
  }
  return true;
}

TEST(JsonMutation, SetAndSweepTextsReapplyOrNameTheirInput) {
  const auto& registry = scenario::builtin_registry();
  const std::string schedule =
      faults::FaultSchedule::load_file(
          (std::filesystem::path(LEAK_SOURCE_DIR) / "examples" /
           "schedules" / "cascade.json")
              .string())
          .dump();
  Rng rng(20261019);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const scenario::Scenario* sc : registry.all()) {
    const scenario::ScenarioSpec& spec = sc->spec();
    const std::string& name = spec.name();
    const scenario::ParamSet base = spec.defaults();
    std::vector<std::string> sets;
    std::vector<std::string> sweeps;
    for (const auto& p : spec.params()) {
      const std::string v = scenario::ParamSet::value_to_string(
          p.default_value);
      sets.push_back(p.name + "=" + v);
      sweeps.push_back(p.name + "=" + v + "," + v);
      if (p.type == scenario::ParamType::kInt ||
          p.type == scenario::ParamType::kDouble) {
        sweeps.push_back(p.name + "=" + v + ":" + v + ":1");
      }
      if (p.name == "faults") sets.push_back("faults=" + schedule);
    }
    for (const auto& seed : sets) {
      ASSERT_TRUE(check_set(spec, base, seed)) << name << ": " << seed;
      for (int k = 0; k < 40; ++k) {
        const auto& other = sets[rng.uniform_index(sets.size())];
        (check_set(spec, base, mutate(seed, other, rng)) ? accepted
                                                         : rejected) += 1;
      }
    }
    for (const auto& seed : sweeps) {
      ASSERT_TRUE(check_sweep(spec, seed)) << name << ": " << seed;
      for (int k = 0; k < 40; ++k) {
        const auto& other = sweeps[rng.uniform_index(sweeps.size())];
        (check_sweep(spec, mutate(seed, other, rng)) ? accepted
                                                     : rejected) += 1;
      }
    }
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(accepted, 1000u) << rejected;
  EXPECT_GT(rejected, 1000u) << accepted;
}

}  // namespace
}  // namespace leak::json
