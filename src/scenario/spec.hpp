// Declarative description of one experiment's parameter surface.
//
// A ScenarioSpec names a scenario and types its parameters (int /
// double / bool / string, each with a default, optional numeric range,
// and optional string choices).  A ParamSet is one concrete assignment
// of those parameters.  Both round-trip through JSON, and ParamSets can
// be built from "key=value" strings (the leakctl --set syntax) with
// strict parsing, so every experiment in the registry is reproducible
// from a command line or an archived JSON artifact alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/support/json.hpp"

namespace leak::scenario {

enum class ParamType : std::uint8_t { kInt, kDouble, kBool, kString };

/// Human-readable type name ("int", "double", "bool", "string").
[[nodiscard]] const char* param_type_name(ParamType t);

using ParamValue = std::variant<std::int64_t, double, bool, std::string>;

[[nodiscard]] ParamType param_type_of(const ParamValue& v);

/// Structural check of a string parameter's text (e.g. an inline JSON
/// document): the reason it is rejected, or nullopt when it is valid.
using TextCheck = std::optional<std::string> (*)(const std::string& text);

/// One typed parameter: default value plus validation constraints.
struct ParamSpec {
  std::string name;
  std::string description;
  ParamType type = ParamType::kInt;
  ParamValue default_value = std::int64_t{0};
  /// Inclusive numeric bounds (int/double parameters only).
  std::optional<double> min_value;
  std::optional<double> max_value;
  /// Allowed values for string parameters; empty = unconstrained.
  std::vector<std::string> choices;
  /// Structural check for string parameters; null = unconstrained.
  TextCheck text_check = nullptr;

  /// Range/choices/text check for a value of this parameter's type:
  /// the reason it is rejected ("0.9 is above the maximum 0.5"), or
  /// nullopt when it is allowed.
  [[nodiscard]] std::optional<std::string> check(const ParamValue& v) const;

  /// The one JSON-to-ParamValue conversion, shared by params documents
  /// and sweep axes: `v` must hold this parameter's type (an int
  /// widens for a double parameter) and pass check(); otherwise throws
  /// std::invalid_argument prefixed with v's path.
  [[nodiscard]] ParamValue from_json(const json::Field& v) const;
};

/// One concrete parameter assignment, ordered like its spec.
class ParamSet {
 public:
  /// Insert or overwrite.
  void set(std::string name, ParamValue value);

  [[nodiscard]] const ParamValue* find(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const {
    return find(name) != nullptr;
  }

  /// Typed getters; throw std::out_of_range when the name is absent
  /// and std::logic_error on a type mismatch.  get_double widens an
  /// int value.
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] bool get_bool(std::string_view name) const;
  [[nodiscard]] const std::string& get_string(std::string_view name) const;

  [[nodiscard]] const std::vector<std::pair<std::string, ParamValue>>& items()
      const {
    return items_;
  }

  /// Render one value as a string (exact round-trip for doubles).
  [[nodiscard]] static std::string value_to_string(const ParamValue& v);

  [[nodiscard]] json::Value to_json() const;

 private:
  std::vector<std::pair<std::string, ParamValue>> items_;
};

/// The declarative registry entry: name, description, parameter table.
class ScenarioSpec {
 public:
  ScenarioSpec(std::string name, std::string description);

  // Builder interface (fluent, used by the registration sites).
  ScenarioSpec& add_int(std::string name, std::string description,
                        std::int64_t default_value,
                        std::optional<double> min_value = std::nullopt,
                        std::optional<double> max_value = std::nullopt);
  ScenarioSpec& add_double(std::string name, std::string description,
                           double default_value,
                           std::optional<double> min_value = std::nullopt,
                           std::optional<double> max_value = std::nullopt);
  ScenarioSpec& add_bool(std::string name, std::string description,
                         bool default_value);
  ScenarioSpec& add_string(std::string name, std::string description,
                           std::string default_value,
                           std::vector<std::string> choices = {},
                           TextCheck text_check = nullptr);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const {
    return description_;
  }
  [[nodiscard]] const std::vector<ParamSpec>& params() const {
    return params_;
  }
  [[nodiscard]] const ParamSpec* find(std::string_view param) const;

  /// " (known params: a, b, c)" — appended to every unknown-parameter
  /// error (--set, --sweep/--axis, params JSON) so a mistyped knob
  /// fails fast with the declared surface in view.
  [[nodiscard]] std::string known_params_hint() const;

  /// ParamSet holding every parameter at its default.
  [[nodiscard]] ParamSet defaults() const;

  /// Parse one strictly-typed value for `param` ("0.33", "true",
  /// "semiactive").  Returns the error message on failure.
  [[nodiscard]] std::optional<std::string> parse_value(
      std::string_view param, std::string_view text, ParamValue* out) const;

  /// Apply one "key=value" assignment to `params` (the --set syntax).
  /// Returns the error message on failure.
  [[nodiscard]] std::optional<std::string> apply_kv(std::string_view kv,
                                                    ParamSet* params) const;

  /// Check that `params` assigns every declared parameter a value of
  /// the right type inside its constraints, with no unknown names.
  /// Returns the first error message, or nullopt when valid.
  [[nodiscard]] std::optional<std::string> validate(
      const ParamSet& params) const;

  [[nodiscard]] json::Value to_json() const;

  /// Parse a ParamSet from a JSON object, validating against this spec
  /// (unknown keys rejected, missing keys filled from defaults).
  [[nodiscard]] std::optional<ParamSet> params_from_json(
      const json::Value& doc, std::string* error = nullptr) const;
  /// params_from_json's throwing core, for a params object nested in a
  /// larger document; errors are prefixed with `at`'s path.
  [[nodiscard]] ParamSet read_params(const json::Field& at) const;

 private:
  ScenarioSpec& add_param(ParamSpec p);

  std::string name_;
  std::string description_;
  std::vector<ParamSpec> params_;
};

}  // namespace leak::scenario
