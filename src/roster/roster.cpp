#include "roster/roster.h"

#include <cstdlib>
#include <stdexcept>

namespace mfm::roster {

namespace {

/// Mode-insensitive specs collapse both modes onto the pipelined slot.
BuildMode effective_mode(const UnitSpec& spec, BuildMode mode) {
  return spec.mode_sensitive ? mode : BuildMode::kPipelined;
}

}  // namespace

std::size_t spec_index(std::string_view name) {
  const std::vector<UnitSpec>& specs = catalog();
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (specs[i].name == name) return i;
  throw std::out_of_range("roster: no unit spec named '" + std::string(name) +
                          "'");
}

std::string job_name(const UnitSpec& spec, std::size_t variant) {
  const std::string& v = spec.variant_names.at(variant);
  return v.empty() ? spec.name : spec.name + "/" + v;
}

std::vector<std::string> catalog_job_names() {
  std::vector<std::string> names;
  for (const UnitSpec& spec : catalog())
    for (std::size_t v = 0; v < spec.variant_names.size(); ++v)
      names.push_back(job_name(spec, v));
  return names;
}

std::vector<RosterJob> plan_jobs(const std::string& only) {
  // --only=A,B,... selects any job whose name contains one of the
  // comma-separated substrings; empty (or all-empty) selects everything.
  std::vector<std::string> needles;
  for (std::size_t pos = 0; pos <= only.size();) {
    const std::size_t comma = only.find(',', pos);
    const std::size_t end = comma == std::string::npos ? only.size() : comma;
    if (end > pos) needles.push_back(only.substr(pos, end - pos));
    pos = end + 1;
  }

  std::vector<RosterJob> jobs;
  const std::vector<UnitSpec>& specs = catalog();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (std::size_t v = 0; v < specs[s].variant_names.size(); ++v) {
      std::string name = job_name(specs[s], v);
      bool match = needles.empty();
      for (const std::string& needle : needles)
        if (name.find(needle) != std::string::npos) {
          match = true;
          break;
        }
      if (match) jobs.push_back(RosterJob{s, v, std::move(name)});
    }
  }
  return jobs;
}

std::string render_job_error(const std::string& job_name,
                             const std::string& message, bool json) {
  if (!json) return job_name + ": ERROR: " + message;
  netlist::JsonWriter j;
  j.object().field("unit", job_name).field("error", message).end();
  return j.str();
}

const char* injected_failure_needle() {
  const char* v = std::getenv("MFM_ROSTER_FAIL");
  return v ? v : "";
}

std::vector<std::string> RosterDriver::failed_jobs() const {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < errors_.size(); ++i)
    if (!errors_[i].empty()) names.push_back(jobs_[i].name);
  return names;
}

const PinVariant& find_variant(const BuiltUnit& unit, std::string_view name) {
  for (const PinVariant& v : unit.variants)
    if (v.name == name) return v;
  throw std::out_of_range("roster: unit has no pin variant named '" +
                          std::string(name) + "'");
}

UnitCache::UnitCache() {
  entries_.reserve(catalog().size() * 2);
  for (std::size_t i = 0; i < catalog().size() * 2; ++i)
    entries_.push_back(std::make_unique<Entry>());
}

UnitCache::Entry& UnitCache::entry(std::size_t spec, BuildMode mode) {
  const std::vector<UnitSpec>& specs = catalog();
  if (spec >= specs.size())
    throw std::out_of_range("roster: spec index " + std::to_string(spec) +
                            " out of range");
  const std::size_t slot =
      spec * 2 +
      (effective_mode(specs[spec], mode) == BuildMode::kCombinational ? 1 : 0);
  return *entries_[slot];
}

const BuiltUnit& UnitCache::unit(std::size_t spec, BuildMode mode) {
  Entry& e = entry(spec, mode);  // range-checks spec
  const UnitSpec& s = catalog()[spec];
  std::call_once(e.build_once, [&] {
    BuiltUnit built = s.build(effective_mode(s, mode));
    if (!built.circuit)
      throw std::logic_error("roster: builder for '" + s.name +
                             "' returned no circuit");
    // The statically declared variant names are the planning source of
    // truth; a builder that disagrees would silently mislabel jobs.
    if (built.variants.size() != s.variant_names.size())
      throw std::logic_error("roster: builder for '" + s.name +
                             "' returned " +
                             std::to_string(built.variants.size()) +
                             " variants, spec declares " +
                             std::to_string(s.variant_names.size()));
    for (std::size_t v = 0; v < built.variants.size(); ++v)
      if (built.variants[v].name != s.variant_names[v])
        throw std::logic_error("roster: builder for '" + s.name +
                               "' variant " + std::to_string(v) + " is '" +
                               built.variants[v].name + "', spec declares '" +
                               s.variant_names[v] + "'");
    e.unit = std::move(built);
    builds_.fetch_add(1);
  });
  return e.unit;
}

const netlist::CompiledCircuit& UnitCache::compiled(std::size_t spec,
                                                    BuildMode mode) {
  const netlist::Circuit& c = *unit(spec, mode).circuit;
  Entry& e = entry(spec, mode);
  std::call_once(e.compile_once, [&] {
    e.compiled = std::make_unique<netlist::CompiledCircuit>(c);
    compiles_.fetch_add(1);
  });
  return *e.compiled;
}

}  // namespace mfm::roster
