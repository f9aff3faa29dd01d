#include "src/support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace leak::json {

namespace {

constexpr int kMaxDepth = 64;

[[noreturn]] void type_error(const char* want, Value::Type got) {
  throw std::logic_error(std::string("json: expected ") + want +
                         ", value holds type #" +
                         std::to_string(static_cast<int>(got)));
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

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  if (std::isnan(v)) return "null";  // JSON has no NaN/Inf
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "0";
  std::string out(buf, ptr);
  // Integral doubles ("2") must keep a decimal marker so the value
  // re-parses as a double, not an int (type-faithful round-trip).
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(int_);
      break;
    case Type::kDouble:
      out += format_double(double_);
      break;
    case Type::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        out += '"';
        out += escape(obj_[i].first);
        out += "\":";
        if (indent >= 0) out += ' ';
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view with offset tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    Value v;
    if (!parse_value(v, 0) || (skip_ws(), pos_ != text_.size())) {
      if (ok_) fail("trailing characters after JSON document");
      if (error != nullptr) {
        *error = err_ + " at byte " + std::to_string(err_pos_);
      }
      return std::nullopt;
    }
    return v;
  }

 private:
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

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out = Value(true);
          return true;
        }
        return fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out = Value(false);
          return true;
        }
        return fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          out = Value(nullptr);
          return true;
        }
        return fail("invalid literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(Value& out, int depth) {
    ++pos_;  // '{'
    out = Value::object();
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      if (out.find(key) != nullptr) {
        return fail("duplicate object key \"" + key + "\"");
      }
      out.set(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out, int depth) {
    ++pos_;  // '['
    out = Value::array();
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out.push_back(std::move(v));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
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
    return fail("unterminated string");
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

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") return fail("invalid number");
    // RFC 8259: no leading zeros on the integer part ("01", "-007").
    const std::size_t digits = tok.front() == '-' ? 1 : 0;
    if (tok.size() > digits + 1 && tok[digits] == '0' &&
        tok[digits + 1] >= '0' && tok[digits + 1] <= '9') {
      pos_ = start;
      return fail("leading zero in number");
    }
    if (!is_double) {
      std::int64_t iv = 0;
      const auto [ptr, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      if (ec == std::errc{} && ptr == tok.data() + tok.size()) {
        out = Value(iv);
        return true;
      }
      // Integer overflow: fall through to the double path.
    }
    double dv = 0.0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), dv);
    if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
      pos_ = start;
      return fail("invalid number");
    }
    out = Value(dv);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string err_;
  std::size_t err_pos_ = 0;
};

}  // namespace

std::optional<Value> Value::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

std::optional<Value> Value::load_file(const std::string& path,
                                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot read";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string parse_error;
  auto doc = parse(buf.str(), &parse_error);
  if (!doc) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return std::nullopt;
  }
  return doc;
}

}  // namespace leak::json
