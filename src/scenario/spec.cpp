#include "src/scenario/spec.hpp"

#include <limits>
#include <stdexcept>

#include "src/support/parse.hpp"
#include "src/support/table.hpp"

namespace leak::scenario {

namespace {

std::string join_choices(const std::vector<std::string>& choices) {
  std::string out;
  for (const auto& c : choices) {
    if (!out.empty()) out += "|";
    out += c;
  }
  return out;
}

}  // namespace

const char* param_type_name(ParamType t) {
  switch (t) {
    case ParamType::kInt:
      return "int";
    case ParamType::kDouble:
      return "double";
    case ParamType::kBool:
      return "bool";
    case ParamType::kString:
      return "string";
  }
  return "?";
}

ParamType param_type_of(const ParamValue& v) {
  switch (v.index()) {
    case 0:
      return ParamType::kInt;
    case 1:
      return ParamType::kDouble;
    case 2:
      return ParamType::kBool;
    default:
      return ParamType::kString;
  }
}

// --- ParamSet -----------------------------------------------------------

void ParamSet::set(std::string name, ParamValue value) {
  for (auto& [n, v] : items_) {
    if (n == name) {
      v = std::move(value);
      return;
    }
  }
  items_.emplace_back(std::move(name), std::move(value));
}

const ParamValue* ParamSet::find(std::string_view name) const {
  for (const auto& [n, v] : items_) {
    if (n == name) return &v;
  }
  return nullptr;
}

namespace {

[[noreturn]] void missing_param(std::string_view name) {
  throw std::out_of_range("ParamSet: no parameter \"" + std::string(name) +
                          "\"");
}

[[noreturn]] void wrong_type(std::string_view name, const char* want,
                             ParamType got) {
  throw std::logic_error("ParamSet: parameter \"" + std::string(name) +
                         "\" is " + param_type_name(got) + ", wanted " +
                         want);
}

}  // namespace

std::int64_t ParamSet::get_int(std::string_view name) const {
  const ParamValue* v = find(name);
  if (v == nullptr) missing_param(name);
  if (const auto* i = std::get_if<std::int64_t>(v)) return *i;
  wrong_type(name, "int", param_type_of(*v));
}

double ParamSet::get_double(std::string_view name) const {
  const ParamValue* v = find(name);
  if (v == nullptr) missing_param(name);
  if (const auto* d = std::get_if<double>(v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(v)) {
    return static_cast<double>(*i);
  }
  wrong_type(name, "double", param_type_of(*v));
}

bool ParamSet::get_bool(std::string_view name) const {
  const ParamValue* v = find(name);
  if (v == nullptr) missing_param(name);
  if (const auto* b = std::get_if<bool>(v)) return *b;
  wrong_type(name, "bool", param_type_of(*v));
}

const std::string& ParamSet::get_string(std::string_view name) const {
  const ParamValue* v = find(name);
  if (v == nullptr) missing_param(name);
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  wrong_type(name, "string", param_type_of(*v));
}

std::string ParamSet::value_to_string(const ParamValue& v) {
  switch (v.index()) {
    case 0:
      return std::to_string(std::get<std::int64_t>(v));
    case 1:
      return Table::fmt_exact(std::get<double>(v));
    case 2:
      return std::get<bool>(v) ? "true" : "false";
    default:
      return std::get<std::string>(v);
  }
}

json::Value ParamSet::to_json() const {
  json::Value obj = json::Value::object();
  for (const auto& [name, value] : items_) {
    std::visit([&](const auto& x) { obj.set(name, json::Value(x)); }, value);
  }
  return obj;
}

// --- ScenarioSpec -------------------------------------------------------

ScenarioSpec::ScenarioSpec(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description)) {
  if (name_.empty()) {
    throw std::invalid_argument("ScenarioSpec: empty name");
  }
}

ScenarioSpec& ScenarioSpec::add_param(ParamSpec p) {
  if (p.name.empty()) {
    throw std::invalid_argument("ScenarioSpec: empty parameter name");
  }
  if (find(p.name) != nullptr) {
    throw std::invalid_argument("ScenarioSpec: duplicate parameter \"" +
                                p.name + "\"");
  }
  params_.push_back(std::move(p));
  return *this;
}

ScenarioSpec& ScenarioSpec::add_int(std::string name, std::string description,
                                    std::int64_t default_value,
                                    std::optional<double> min_value,
                                    std::optional<double> max_value) {
  ParamSpec p;
  p.name = std::move(name);
  p.description = std::move(description);
  p.type = ParamType::kInt;
  p.default_value = default_value;
  p.min_value = min_value;
  p.max_value = max_value;
  return add_param(std::move(p));
}

ScenarioSpec& ScenarioSpec::add_double(std::string name,
                                       std::string description,
                                       double default_value,
                                       std::optional<double> min_value,
                                       std::optional<double> max_value) {
  ParamSpec p;
  p.name = std::move(name);
  p.description = std::move(description);
  p.type = ParamType::kDouble;
  p.default_value = default_value;
  p.min_value = min_value;
  p.max_value = max_value;
  return add_param(std::move(p));
}

ScenarioSpec& ScenarioSpec::add_bool(std::string name, std::string description,
                                     bool default_value) {
  ParamSpec p;
  p.name = std::move(name);
  p.description = std::move(description);
  p.type = ParamType::kBool;
  p.default_value = default_value;
  return add_param(std::move(p));
}

ScenarioSpec& ScenarioSpec::add_string(std::string name,
                                       std::string description,
                                       std::string default_value,
                                       std::vector<std::string> choices,
                                       TextCheck text_check) {
  ParamSpec p;
  p.name = std::move(name);
  p.description = std::move(description);
  p.type = ParamType::kString;
  p.default_value = std::move(default_value);
  p.choices = std::move(choices);
  p.text_check = text_check;
  return add_param(std::move(p));
}

const ParamSpec* ScenarioSpec::find(std::string_view param) const {
  for (const auto& p : params_) {
    if (p.name == param) return &p;
  }
  return nullptr;
}

ParamSet ScenarioSpec::defaults() const {
  ParamSet out;
  for (const auto& p : params_) out.set(p.name, p.default_value);
  return out;
}

std::optional<std::string> ParamSpec::check(const ParamValue& v) const {
  if (type == ParamType::kInt || type == ParamType::kDouble) {
    const double x = type == ParamType::kInt
                         ? static_cast<double>(std::get<std::int64_t>(v))
                         : std::get<double>(v);
    if (min_value && x < *min_value) {
      return ParamSet::value_to_string(v) + " is below the minimum " +
             Table::fmt_exact(*min_value);
    }
    if (max_value && x > *max_value) {
      return ParamSet::value_to_string(v) + " is above the maximum " +
             Table::fmt_exact(*max_value);
    }
  }
  if (type == ParamType::kString && !choices.empty()) {
    const auto& s = std::get<std::string>(v);
    for (const auto& c : choices) {
      if (c == s) return std::nullopt;
    }
    return "\"" + s + "\" is not one of " + join_choices(choices);
  }
  if (type == ParamType::kString && text_check != nullptr) {
    return text_check(std::get<std::string>(v));
  }
  return std::nullopt;
}

ParamValue ParamSpec::from_json(const json::Field& v) const {
  ParamValue out;
  switch (type) {
    case ParamType::kInt:
      out = v.integer(std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max());
      break;
    case ParamType::kDouble:
      out = v.number();
      break;
    case ParamType::kBool:
      out = v.boolean();
      break;
    case ParamType::kString:
      out = v.string();
      break;
  }
  if (auto err = check(out)) v.fail(*err);
  return out;
}

std::string ScenarioSpec::known_params_hint() const {
  std::string hint = " (known params: ";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i != 0) hint += ", ";
    hint += params_[i].name;
  }
  hint += ")";
  return hint;
}

std::optional<std::string> ScenarioSpec::parse_value(std::string_view param,
                                                     std::string_view text,
                                                     ParamValue* out) const {
  const ParamSpec* p = find(param);
  if (p == nullptr) {
    return "unknown parameter \"" + std::string(param) + "\" for scenario \"" +
           name_ + "\"" + known_params_hint();
  }
  ParamValue v;
  switch (p->type) {
    case ParamType::kInt: {
      const auto parsed = parse::i64(text);
      if (!parsed) {
        return "parameter \"" + p->name + "\": \"" + std::string(text) +
               "\" is not an integer";
      }
      v = *parsed;
      break;
    }
    case ParamType::kDouble: {
      const auto parsed = parse::real(text);
      if (!parsed) {
        return "parameter \"" + p->name + "\": \"" + std::string(text) +
               "\" is not a finite number";
      }
      v = *parsed;
      break;
    }
    case ParamType::kBool: {
      const auto parsed = parse::boolean(text);
      if (!parsed) {
        return "parameter \"" + p->name + "\": \"" + std::string(text) +
               "\" is not a boolean (true|false|1|0|yes|no|on|off)";
      }
      v = *parsed;
      break;
    }
    case ParamType::kString:
      v = std::string(parse::trim(text));
      break;
  }
  if (auto err = p->check(v)) {
    return "parameter \"" + p->name + "\": " + *err;
  }
  if (out != nullptr) *out = std::move(v);
  return std::nullopt;
}

std::optional<std::string> ScenarioSpec::apply_kv(std::string_view kv,
                                                  ParamSet* params) const {
  const auto eq = kv.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return "malformed assignment \"" + std::string(kv) +
           "\" (expected key=value)";
  }
  const std::string_view key = parse::trim(kv.substr(0, eq));
  const std::string_view text = kv.substr(eq + 1);
  ParamValue v;
  if (auto err = parse_value(key, text, &v)) return err;
  params->set(std::string(key), std::move(v));
  return std::nullopt;
}

std::optional<std::string> ScenarioSpec::validate(
    const ParamSet& params) const {
  for (const auto& [name, value] : params.items()) {
    const ParamSpec* p = find(name);
    if (p == nullptr) {
      return "unknown parameter \"" + name + "\" for scenario \"" + name_ +
             "\"" + known_params_hint();
    }
    if (param_type_of(value) != p->type) {
      return "parameter \"" + name + "\": expected " +
             param_type_name(p->type) + ", got " +
             param_type_name(param_type_of(value));
    }
    if (auto err = p->check(value)) {
      return "parameter \"" + name + "\": " + *err;
    }
  }
  for (const auto& p : params_) {
    if (!params.contains(p.name)) {
      return "missing parameter \"" + p.name + "\"";
    }
  }
  return std::nullopt;
}

json::Value ScenarioSpec::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("name", name_);
  doc.set("description", description_);
  json::Value params = json::Value::array();
  for (const auto& p : params_) {
    json::Value pj = json::Value::object();
    pj.set("name", p.name);
    pj.set("type", param_type_name(p.type));
    pj.set("description", p.description);
    std::visit([&pj](const auto& x) { pj.set("default", json::Value(x)); },
               p.default_value);
    if (p.min_value) pj.set("min", *p.min_value);
    if (p.max_value) pj.set("max", *p.max_value);
    if (!p.choices.empty()) {
      json::Value cj = json::Value::array();
      for (const auto& c : p.choices) cj.push_back(c);
      pj.set("choices", std::move(cj));
    }
    params.push_back(std::move(pj));
  }
  doc.set("params", std::move(params));
  return doc;
}

std::optional<ParamSet> ScenarioSpec::params_from_json(
    const json::Value& doc, std::string* error) const {
  try {
    return read_params(json::Field(doc, "params"));
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

ParamSet ScenarioSpec::read_params(const json::Field& at) const {
  json::Fields f(at);
  ParamSet out;
  for (const auto& p : params_) {
    const auto v = f.find(p.name);
    out.set(p.name, v ? p.from_json(*v) : p.default_value);
  }
  f.finish();
  return out;
}

}  // namespace leak::scenario
