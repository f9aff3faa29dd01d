#include "src/support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>

namespace leak::json {

namespace {

constexpr int kMaxDepth = 64;

[[noreturn]] void type_error(const char* want, Value::Type got) {
  throw std::logic_error(std::string("json: expected ") + want +
                         ", value holds type #" +
                         std::to_string(static_cast<int>(got)));
}

/// Shortest round-trip text of `v` into `buf` (32 bytes); returns
/// the end.  NaN is "null" and +-inf "1e999" / "-1e999", since JSON has
/// neither; integral values keep a ".0" so they re-parse as doubles
/// (type-faithful round-trip).
char* format_double_to(char* buf, double v) {
  const auto put = [&](std::string_view s) {
    std::memcpy(buf, s.data(), s.size());
    return buf + s.size();
  };
  if (std::isnan(v)) return put("null");
  if (std::isinf(v)) return put(v > 0 ? "1e999" : "-1e999");
  const auto [end, ec] = std::to_chars(buf, buf + 30, v);
  if (ec != std::errc{}) return put("0");
  if (std::string_view(buf, static_cast<std::size_t>(end - buf))
          .find_first_of(".eE") == std::string_view::npos) {
    std::memcpy(end, ".0", 2);
    return end + 2;
  }
  return end;
}

}  // namespace

Value::Value(std::uint64_t v) {
  // JSON has one number type; keep exact integers when they fit.
  if (v <= 0x7fffffffffffffffULL) {
    type_ = Type::kInt;
    int_ = static_cast<std::int64_t>(v);
  } else {
    type_ = Type::kDouble;
    double_ = static_cast<double>(v);
  }
}

Value::Value(const Value& other) : type_(other.type_) { construct_from(other); }

Value::Value(Value&& other) noexcept : type_(other.type_) {
  construct_from(std::move(other));
}

Value& Value::operator=(const Value& other) {
  if (this != &other) *this = Value(other);
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    // `other` may live inside this node: take it before destroying.
    Value taken(std::move(other));
    if (type_ >= Type::kString) destroy();
    type_ = taken.type_;
    construct_from(std::move(taken));
  }
  return *this;
}

template <class V>
void Value::construct_from(V&& other) {
  switch (type_) {
    case Type::kNull:
      break;
    case Type::kBool:
      bool_ = other.bool_;
      break;
    case Type::kInt:
      int_ = other.int_;
      break;
    case Type::kDouble:
      double_ = other.double_;
      break;
    case Type::kString:
      new (&str_) std::string(std::forward<V>(other).str_);
      break;
    case Type::kArray:
      new (&arr_) Array(std::forward<V>(other).arr_);
      break;
    case Type::kObject:
      new (&obj_) Object(std::forward<V>(other).obj_);
      break;
  }
}

void Value::destroy() noexcept {
  switch (type_) {
    case Type::kString:
      std::destroy_at(&str_);
      break;
    case Type::kArray:
      std::destroy_at(&arr_);
      break;
    case Type::kObject:
      std::destroy_at(&obj_);
      break;
    default:
      break;
  }
}

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

std::int64_t Value::as_int() const {
  if (type_ != Type::kInt) type_error("int", type_);
  return int_;
}

double Value::as_double() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  if (type_ != Type::kDouble) type_error("number", type_);
  return double_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const Array& Value::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const Object& Value::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

void Value::push_back(Value v) {
  if (type_ != Type::kArray) type_error("array", type_);
  arr_.push_back(std::move(v));
}

std::size_t Value::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  type_error("array or object", type_);
}

const Value& Value::at(std::size_t i) const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_.at(i);
}

Value& Value::set(std::string key, Value v) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
  return obj_.back().second;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string format_double(double v) {
  char buf[32];
  return std::string(buf, format_double_to(buf, v));
}

namespace detail {

/// Serializer: one output buffer written through a raw pointer, grown
/// geometrically (std::string's own push_back is an out-of-line call).
class Writer {
 public:
  explicit Writer(int indent) : indent_(indent) {}

  std::string take() && {
    buf_.resize(len_);
    return std::move(buf_);
  }

  void value(const Value& v, int depth) {
    switch (v.type_) {
      case Value::Type::kNull:
        put("null");
        break;
      case Value::Type::kBool:
        put(v.bool_ ? "true" : "false");
        break;
      case Value::Type::kInt: {
        char* const p = room(24);
        const char* const end = std::to_chars(p, p + 24, v.int_).ptr;
        len_ += static_cast<std::size_t>(end - p);
        break;
      }
      case Value::Type::kDouble: {
        char* const p = room(32);
        len_ += static_cast<std::size_t>(format_double_to(p, v.double_) - p);
        break;
      }
      case Value::Type::kString:
        string(v.str_);
        break;
      case Value::Type::kArray: {
        if (v.arr_.empty()) {
          put("[]");
          break;
        }
        put('[');
        for (std::size_t i = 0; i < v.arr_.size(); ++i) {
          if (i) put(',');
          newline_pad(depth + 1);
          value(v.arr_[i], depth + 1);
        }
        newline_pad(depth);
        put(']');
        break;
      }
      case Value::Type::kObject: {
        if (v.obj_.empty()) {
          put("{}");
          break;
        }
        put('{');
        for (std::size_t i = 0; i < v.obj_.size(); ++i) {
          if (i) put(',');
          newline_pad(depth + 1);
          string(v.obj_[i].first);
          put(indent_ >= 0 ? ": " : ":");
          value(v.obj_[i].second, depth + 1);
        }
        newline_pad(depth);
        put('}');
        break;
      }
    }
  }

 private:
  /// Room for `n` more bytes at the end of the output.
  char* room(std::size_t n) {
    if (n > buf_.size() - len_) {
      buf_.resize(std::max(2 * buf_.size(), len_ + n + 256));
    }
    return buf_.data() + len_;
  }
  void put(char c) {
    *room(1) = c;
    ++len_;
  }
  void put(std::string_view s) {
    std::memcpy(room(s.size()), s.data(), s.size());
    len_ += s.size();
  }

  void newline_pad(int depth) {
    if (indent_ < 0) return;
    const auto n = static_cast<std::size_t>(indent_ * depth);
    char* p = room(n + 1);
    *p = '\n';
    std::memset(p + 1, ' ', n);
    len_ += n + 1;
  }

  /// A quoted, escaped string.  Runs of bytes that need no escape are
  /// copied in one call; UTF-8 passes through verbatim.
  void string(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    put('"');
    const char* run = s.data();
    const char* const end = s.data() + s.size();
    for (const char* p = run; p != end; ++p) {
      const auto c = static_cast<unsigned char>(*p);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      put(std::string_view(run, static_cast<std::size_t>(p - run)));
      run = p + 1;
      switch (c) {
        case '"':
          put("\\\"");
          break;
        case '\\':
          put("\\\\");
          break;
        case '\b':
          put("\\b");
          break;
        case '\f':
          put("\\f");
          break;
        case '\n':
          put("\\n");
          break;
        case '\r':
          put("\\r");
          break;
        case '\t':
          put("\\t");
          break;
        default: {
          const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
          put(std::string_view(u, sizeof u));
        }
      }
    }
    put(std::string_view(run, static_cast<std::size_t>(end - run)));
    put('"');
  }

  int indent_;
  std::string buf_;
  std::size_t len_ = 0;
};

}  // namespace detail

std::string Value::dump(int indent) const {
  detail::Writer w(indent);
  w.value(*this, 0);
  return std::move(w).take();
}

namespace detail {

/// Recursive-descent parser over a string_view with offset tracking.
/// Every value is parsed into a slot of one reusable stack: an open
/// array's elements and an open object's values sit above the
/// container's own slot (object keys on a parallel stack), and each
/// container is built once, at its exact size, when it closes.  After
/// a failure (ok_ false) every caller unwinds.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    stack_.emplace_back();
    if (parse_value(0, 0)) {
      skip_ws();
      if (pos_ != text_.size()) fail("trailing characters after JSON document");
    }
    if (!ok_) {
      if (error != nullptr) {
        *error = err_ + " at byte " + std::to_string(err_pos_);
      }
      return std::nullopt;
    }
    return std::move(stack_.front());
  }

 private:
  /// Record the first failure at the current offset.
  bool fail(const std::string& msg) {
    if (ok_) {
      ok_ = false;
      err_ = msg;
      err_pos_ = pos_;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  bool literal(std::string_view word, Value v, std::size_t slot) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    stack_[slot] = std::move(v);
    return true;
  }

  /// Parse the value at pos_ into stack_[slot], a null node.
  bool parse_value(std::size_t slot, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(slot, depth);
      case '[':
        return parse_array(slot, depth);
      case '"': {
        // The slot holds nothing, so the string is begun in place and
        // parsed straight into the node.
        Value& v = stack_[slot];
        v.type_ = Value::Type::kString;
        new (&v.str_) std::string();
        return parse_string(v.str_);
      }
      case 't':
        return literal("true", Value(true), slot);
      case 'f':
        return literal("false", Value(false), slot);
      case 'n':
        return literal("null", Value(nullptr), slot);
      default:
        return parse_number(slot);
    }
  }

  bool parse_object(std::size_t slot, int depth) {
    ++pos_;  // '{'
    const std::size_t base = stack_.size();
    const std::size_t key_base = keys_.size();
    skip_ws();
    if (!consume('}')) {
      for (;;) {
        skip_ws();
        keys_.emplace_back();
        if (!parse_string(keys_.back())) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':' after object key");
        stack_.emplace_back();
        if (!parse_value(stack_.size() - 1, depth + 1)) return false;
        const std::string& key = keys_.back();
        for (std::size_t i = key_base; i + 1 < keys_.size(); ++i) {
          if (keys_[i] == key) {
            return fail("duplicate object key \"" + key + "\"");
          }
        }
        skip_ws();
        if (consume('}')) break;
        if (!consume(',')) return fail("expected ',' or '}' in object");
      }
    }
    Object members;
    members.reserve(keys_.size() - key_base);
    for (std::size_t i = key_base; i < keys_.size(); ++i) {
      members.emplace_back(std::move(keys_[i]),
                           std::move(stack_[base + (i - key_base)]));
    }
    keys_.resize(key_base);
    stack_.resize(base);
    stack_[slot] = Value(std::move(members));
    return true;
  }

  bool parse_array(std::size_t slot, int depth) {
    ++pos_;  // '['
    const std::size_t base = stack_.size();
    skip_ws();
    if (!consume(']')) {
      for (;;) {
        stack_.emplace_back();
        if (!parse_value(stack_.size() - 1, depth + 1)) return false;
        skip_ws();
        if (consume(']')) break;
        if (!consume(',')) return fail("expected ',' or ']' in array");
      }
    }
    const auto first = stack_.begin() + static_cast<std::ptrdiff_t>(base);
    Array elems(std::make_move_iterator(first),
                std::make_move_iterator(stack_.end()));
    stack_.erase(first, stack_.end());
    stack_[slot] = Value(std::move(elems));
    return true;
  }

  /// Append the string starting at pos_ (its opening quote) to `out`.
  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    for (;;) {
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c < 0x20 || c == '"' || c == '\\') break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c != '\\') {
        return fail("unescaped control character in string");
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // Surrogate pair: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("lone high surrogate");
            }
            pos_ += 2;
            unsigned lo = 0;
            if (!parse_hex4(lo)) return false;
            if (lo < 0xdc00 || lo > 0xdfff) {
              return fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape digit");
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  /// RFC 8259 §6: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  /// Errors name the number's first byte.
  bool parse_number(std::size_t slot) {
    const std::size_t start = pos_;
    const auto reject = [&](const char* msg) {
      pos_ = start;
      return fail(msg);
    };
    const auto skip_digits = [&] {
      const std::size_t from = pos_;
      while (at_digit()) ++pos_;
      return pos_ - from;
    };
    const bool negative = consume('-');
    const std::size_t int_begin = pos_;
    const std::size_t int_digits = skip_digits();
    if (int_digits == 0) return reject("invalid number");
    if (int_digits > 1 && text_[int_begin] == '0') {
      return reject("leading zero in number");
    }
    bool is_double = false;
    std::size_t frac_begin = pos_;
    if (consume('.')) {
      frac_begin = pos_;
      if (skip_digits() == 0) return reject("invalid number");
      is_double = true;
    }
    const std::size_t frac_end = pos_;
    long exponent = 0;  // saturated: only its sign past +-1e6 matters
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      const bool negative_exp = consume('-');
      if (!negative_exp) (void)consume('+');
      if (!at_digit()) return reject("invalid number");
      while (at_digit()) {
        if (exponent < 1000000) exponent = exponent * 10 + (text_[pos_] - '0');
        ++pos_;
      }
      if (negative_exp) exponent = -exponent;
      is_double = true;
    }
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    if (!is_double) {
      std::int64_t iv = 0;
      if (std::from_chars(first, last, iv).ec == std::errc{}) {
        stack_[slot] = Value(iv);
        return true;
      }
      // Integer overflow: read it as a double.
    }
    double dv = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, dv);
    if (ec == std::errc::result_out_of_range) {
      // Past the double range (dump writes +-inf as +-1e999): overflow
      // reads as +-inf, underflow as +-0.  The decimal exponent of the
      // leading significant digit tells which.
      long lead = static_cast<long>(int_digits) - 1;
      if (text_[int_begin] == '0') {
        lead = -1;
        for (std::size_t i = frac_begin; i < frac_end && text_[i] == '0'; ++i) {
          --lead;
        }
      }
      dv = lead + exponent > 0 ? std::numeric_limits<double>::infinity() : 0.0;
      if (negative) dv = -dv;
    } else if (ec != std::errc{} || ptr != last) {
      return reject("invalid number");
    }
    stack_[slot] = Value(dv);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string err_;
  std::size_t err_pos_ = 0;
  std::vector<Value> stack_;        ///< node slots, innermost last
  std::vector<std::string> keys_;  ///< open objects' keys, innermost last
};

}  // namespace detail

std::optional<Value> Value::parse(std::string_view text, std::string* error) {
  return detail::Parser(text).run(error);
}

namespace {

/// Levenshtein distance, for the missing-key typo hint.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({above + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

const Value& null_value() {
  static const Value null;
  return null;
}

}  // namespace

Field::Field(std::string_view name) : Field(null_value(), name) {}

std::string Field::path() const {
  std::string out = parent_ != nullptr ? parent_->path() : std::string();
  if (is_element_) {
    out += '[';
    out += std::to_string(index_);
    out += ']';
  } else {
    if (parent_ != nullptr) out += '.';
    out += name_;
  }
  return out;
}

void Field::fail(std::string_view what) const {
  throw std::invalid_argument(path() + ": " + std::string(what));
}

const std::string& Field::string() const {
  if (!value_->is_string()) fail("must be a string");
  return value_->as_string();
}

double Field::number() const {
  if (!value_->is_number()) fail("must be a number");
  return value_->as_double();
}

bool Field::boolean() const {
  if (!value_->is_bool()) fail("must be a boolean");
  return value_->as_bool();
}

std::int64_t Field::integer(std::int64_t lo, std::int64_t hi,
                            const char* what) const {
  if (value_->is_int() && value_->as_int() >= lo && value_->as_int() <= hi) {
    return value_->as_int();
  }
  if (what != nullptr) fail(std::string("must be ") + what);
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  if (lo == hi) fail("must be " + std::to_string(lo));
  if (lo == kMin && hi == kMax) fail("must be an integer");
  if (hi == kMax) fail("must be an integer >= " + std::to_string(lo));
  fail("must be an integer in [" + std::to_string(lo) + ", " +
       std::to_string(hi) + "]");
}

Fields::Fields(const Field& at) : self_(at) {
  if (!at.value().is_object()) at.fail("must be an object");
}

bool Fields::asked(std::string_view key) const {
  return std::find(asked_.begin(), asked_.end(), key) != asked_.end();
}

std::optional<Field> Fields::find(std::string_view key) {
  asked_.push_back(key);
  for (const auto& [k, v] : self_.value().as_object()) {
    if (k == key) return Field(self_, k, v);
  }
  return std::nullopt;
}

Field Fields::get(std::string_view key) {
  if (auto member = find(key)) return *member;
  // A missing key beside a near-miss spelling ("facter" for "factor")
  // is a typo: name the typo rather than the missing key.
  for (const auto& [k, v] : self_.value().as_object()) {
    if (!asked(k) &&
        edit_distance(k, key) <= std::max<std::size_t>(1, key.size() / 3)) {
      self_.fail("unknown key \"" + k + "\" (did you mean \"" +
                 std::string(key) + "\"?)");
    }
  }
  self_.fail("missing key \"" + std::string(key) + "\"");
}

void Fields::finish() const {
  for (const auto& [k, v] : self_.value().as_object()) {
    if (asked(k)) continue;
    std::string expected;
    for (const std::string_view a : asked_) {
      if (!expected.empty()) expected += ", ";
      expected += a;
    }
    self_.fail("unknown key \"" + k + "\" (expected " +
               (expected.empty() ? "no keys" : expected) + ")");
  }
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  // peek() makes the first read: a directory opens but fails it
  // (EISDIR), where seeking would size it to a bogus length.
  if (!in || (in.peek(), in.bad())) return false;
  if (in.seekg(0, std::ios::end)) {
    out->resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    return static_cast<bool>(
        in.read(out->data(), static_cast<std::streamsize>(out->size())));
  }
  in.clear();  // not seekable (a pipe): read it as a stream
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return !in.bad();
}

std::optional<Value> Value::load_file(const std::string& path,
                                      std::string* error) {
  std::string text;
  if (!read_file(path, &text)) {
    if (error != nullptr) *error = path + ": cannot read";
    return std::nullopt;
  }
  std::string parse_error;
  auto doc = parse(text, &parse_error);
  if (!doc) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return std::nullopt;
  }
  return doc;
}

}  // namespace leak::json
