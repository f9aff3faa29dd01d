#include "src/serve/job.hpp"

#include <limits>
#include <stdexcept>

#include "src/crypto/sha256.hpp"
#include "src/support/crc32.hpp"

namespace leak::serve {

namespace {

/// The identity core: everything that determines the numbers.
[[nodiscard]] json::Value identity_json(const JobSpec& job) {
  json::Value doc = json::Value::object();
  doc.set("scenario", job.scenario);
  doc.set("params", job.base.to_json());
  doc.set("axes", scenario::axes_to_json(job.axes));
  doc.set("vary_seed", job.config.vary_seed);
  return doc;
}

}  // namespace

scenario::ParamSet JobSpec::cell_params(std::size_t index) const {
  scenario::ParamSet cell =
      scenario::sweep_cell_params(base, axes, index, config.vary_seed);
  cell.set("threads", std::int64_t{1});
  return cell;
}

std::string JobSpec::id() const {
  const auto digest = crypto::sha256(identity_json(*this).dump());
  return crypto::to_hex(digest).substr(0, 16);
}

std::uint32_t JobSpec::cell_fingerprint(std::size_t index) const {
  return crc32::of(scenario + "\n" + cell_params(index).to_json().dump());
}

json::Value JobSpec::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("version", std::int64_t{1});
  doc.set("scenario", scenario);
  doc.set("params", base.to_json());
  doc.set("axes", scenario::axes_to_json(axes));
  json::Value cfg = json::Value::object();
  cfg.set("vary_seed", config.vary_seed);
  cfg.set("workers", static_cast<std::int64_t>(config.workers));
  cfg.set("max_retries", static_cast<std::int64_t>(config.max_retries));
  doc.set("config", std::move(cfg));
  return doc;
}

std::optional<JobSpec> JobSpec::from_json(
    const scenario::ScenarioRegistry& registry, const json::Value& doc,
    std::string* error) {
  constexpr std::int64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
  try {
    json::Fields f(json::Field(doc, "manifest"));
    if (const auto version = f.find("version")) (void)version->integer(1, 1);
    const json::Field name = f.get("scenario");
    const scenario::Scenario* sc = registry.find(name.string());
    if (sc == nullptr) {
      name.fail("unknown scenario \"" + name.string() + "\"");
    }
    JobSpec job;
    job.scenario = name.string();
    const auto params = f.find("params");
    job.base = params ? sc->spec().read_params(*params) : sc->spec().defaults();
    if (const auto axes = f.find("axes")) {
      job.axes = scenario::read_axes(sc->spec(), *axes);
    }
    if (const auto config = f.find("config")) {
      json::Fields cfg(*config);
      if (const auto v = cfg.find("vary_seed")) {
        job.config.vary_seed = v->boolean();
      }
      if (const auto v = cfg.find("workers")) {
        job.config.workers = static_cast<unsigned>(v->integer(1, kMaxUnsigned));
      }
      if (const auto v = cfg.find("max_retries")) {
        job.config.max_retries =
            static_cast<unsigned>(v->integer(0, kMaxUnsigned));
      }
      cfg.finish();
    }
    f.finish();
    return job;
  } catch (const std::invalid_argument& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace leak::serve
