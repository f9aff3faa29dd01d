// Minimal JSON document model with a strict parser and a deterministic
// serializer.  This is the machine-readable half of the reporting
// stack: scenario specs/results, the leakctl --json output, and the
// bench emission helpers all go through it.
//
// Design points:
//   - Objects preserve insertion order, so serialized output is stable
//     across runs and diffs cleanly (the README scenario catalog and
//     the CI artifacts rely on this).
//   - Numbers are locale-independent both ways (std::to_chars /
//     std::from_chars); doubles round-trip exactly via the shortest
//     representation.  JSON has no NaN or infinity: NaN dumps as
//     `null`, ±inf as `1e999` / `-1e999`, and the parser reads any
//     literal past the double range back as ±inf (and one below it as
//     ±0), so every finite or infinite double round-trips.
//   - The parser is strict RFC 8259: no comments, no trailing commas,
//     the §6 number grammar (no ".5", "0." or "1.e5"), rejects
//     trailing garbage, bounded nesting depth.
//   - A Value is a 40-byte tagged node: a type byte and a union that
//     holds only the active kind, so a large result copies and frees
//     without touching three empty containers per node.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leak::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered key/value storage; keys are unique.
using Object = std::vector<std::pair<std::string, Value>>;

namespace detail {
class Parser;
class Writer;
}  // namespace detail

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  // Implicit construction from the scalar types keeps call sites
  // (`result.set("seed", 99)`) readable.
  Value() noexcept : type_(Type::kNull) {}
  Value(std::nullptr_t) noexcept : type_(Type::kNull) {}
  Value(bool b) noexcept : type_(Type::kBool), bool_(b) {}
  Value(int v) noexcept : type_(Type::kInt), int_(v) {}
  Value(std::int64_t v) noexcept : type_(Type::kInt), int_(v) {}
  Value(std::uint64_t v);
  Value(double v) noexcept : type_(Type::kDouble), double_(v) {}
  Value(const char* s) : type_(Type::kString), str_(s) {}
  Value(std::string s) noexcept : type_(Type::kString), str_(std::move(s)) {}
  /// Adopt built elements, so an array of known length is built once
  /// at its exact size.
  explicit Value(Array a) noexcept : type_(Type::kArray), arr_(std::move(a)) {}

  /// Copies are deep.  A moved-from Value keeps its type; a moved-from
  /// array or object is empty.
  Value(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() {
    if (type_ >= Type::kString) destroy();
  }

  [[nodiscard]] static Value array() { return Value(Array{}); }
  [[nodiscard]] static Value object() { return Value(Object{}); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_int() const { return type_ == Type::kInt; }
  [[nodiscard]] bool is_double() const { return type_ == Type::kDouble; }
  /// Either numeric type.
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::logic_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// Numeric accessor: returns kInt values widened to double.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  // --- array interface -------------------------------------------------
  /// Append to an array (throws on non-array).
  void push_back(Value v);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Value& at(std::size_t i) const;

  // --- object interface ------------------------------------------------
  /// Insert-or-assign on an object (throws on non-object); keeps the
  /// first-insertion position on overwrite.
  Value& set(std::string key, Value v);
  /// Lookup; nullptr when absent (throws on non-object).
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Serialize.  indent < 0: compact single line; indent >= 0: pretty
  /// with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Strict parse of a complete document.  On failure returns nullopt
  /// and, when `error` is non-null, a message with the byte offset.
  [[nodiscard]] static std::optional<Value> parse(std::string_view text,
                                                  std::string* error = nullptr);

  /// Read (read_file) and parse a JSON document from a file.  On
  /// failure returns nullopt and, when `error` is non-null, a message
  /// prefixed with the path.  Shared by the leakctl --params replay,
  /// the serve job manifests, and the baseline tooling.
  [[nodiscard]] static std::optional<Value> load_file(
      const std::string& path, std::string* error = nullptr);

 private:
  friend class detail::Parser;
  friend class detail::Writer;

  /// Adopt members whose keys are unique (the parser checks them).
  explicit Value(Object o) noexcept
      : type_(Type::kObject), obj_(std::move(o)) {}

  /// Copy (lvalue) or move (rvalue) `other`'s active member into this
  /// node, whose type_ already equals other's and whose union owns
  /// nothing yet.
  template <class V>
  void construct_from(V&& other);
  /// Destroy the active string, array or object.
  void destroy() noexcept;

  Type type_;
  union {
    bool bool_;
    std::int64_t int_ = 0;
    double double_;
    std::string str_;
    Array arr_;
    Object obj_;
  };
};

/// One value of a user document and where it sits ("events[3].epoch"),
/// with typed reads that throw std::invalid_argument("<path>: <what>")
/// on a mismatch.  A child keeps a pointer to its parent and the path
/// string is built only when an error is thrown, so reading a valid
/// document builds none.  A parent must outlive its children.
class Field {
 public:
  /// The document root; its path renders as `name` ("schedule").
  Field(const Value& v, std::string_view name) : value_(&v), name_(name) {}
  /// A root without a value of its own, only the parent of documents
  /// read one at a time: Field(Field("records"), 3, rec) is
  /// "records[3]".
  explicit Field(std::string_view name);
  /// Member `key` of `parent` ("parent.key").
  Field(const Field& parent, std::string_view key, const Value& v)
      : value_(&v), parent_(&parent), name_(key) {}
  /// Element `index` of `parent` ("parent[index]").
  Field(const Field& parent, std::size_t index, const Value& v)
      : value_(&v), parent_(&parent), index_(index), is_element_(true) {}

  [[nodiscard]] const Value& value() const { return *value_; }
  [[nodiscard]] std::string path() const;
  /// Throw std::invalid_argument("<path>: <what>").
  [[noreturn]] void fail(std::string_view what) const;

  [[nodiscard]] const std::string& string() const;
  /// Either numeric type, widened to double.
  [[nodiscard]] double number() const;
  [[nodiscard]] bool boolean() const;
  /// An integer in [lo, hi].  The error says "must be <what>" when
  /// `what` is given, else it states the range.
  [[nodiscard]] std::int64_t integer(std::int64_t lo, std::int64_t hi,
                                     const char* what = nullptr) const;
  /// Call fn(Field) on each element of an array.
  template <class Fn>
  void each(Fn&& fn) const {
    if (!value_->is_array()) fail("must be an array");
    const Array& items = value_->as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      fn(Field(*this, i, items[i]));
    }
  }

 private:
  const Value* value_;
  const Field* parent_ = nullptr;
  std::string_view name_;
  std::size_t index_ = 0;
  bool is_element_ = false;
};

/// The one reader of user-controlled JSON objects (fault schedules,
/// job manifests, sweep axes, params documents, store and journal
/// records).  It records each key it is asked for; finish() rejects
/// any other key, naming the expected set.  Keys passed in must
/// outlive the reader.  Not copyable: its members' Fields point at it.
class Fields {
 public:
  /// The object at `at`; throws unless it is an object.
  explicit Fields(const Field& at);
  Fields(const Fields&) = delete;
  Fields& operator=(const Fields&) = delete;

  /// Required member.  A missing key throws; when an unasked key is a
  /// near-miss spelling of it, the error names that key as the typo.
  [[nodiscard]] Field get(std::string_view key);
  /// Optional member.
  [[nodiscard]] std::optional<Field> find(std::string_view key);
  /// Throw unless every member's key has been asked for.
  void finish() const;

 private:
  [[nodiscard]] bool asked(std::string_view key) const;

  Field self_;
  std::vector<std::string_view> asked_;
};

/// Read a whole file into `out`, sized once from the file's length
/// (a pipe is read as a stream).  Returns false when the file cannot
/// be opened or read.  Shared by load_file and the serve store's scan.
[[nodiscard]] bool read_file(const std::string& path, std::string* out);

/// Shortest round-trip, locale-independent formatting of a double
/// ("0.33", "1e-09", "4024").  Shared by the serializer, the CSV
/// writer, and Table.
[[nodiscard]] std::string format_double(double v);

}  // namespace leak::json
