#include "harness/estimator_spec.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "harness/estimator.hpp"
#include "harness/replay.hpp"

namespace tscclock::harness {

// -- EstimatorRegistry -----------------------------------------------------

EstimatorRegistry& EstimatorRegistry::instance() {
  static EstimatorRegistry registry;
  // Anchor the built-in registrations here: they live in the translation
  // units that implement the estimators (harness/estimator.cpp,
  // harness/replay.cpp), whose objects a static-library link could
  // otherwise drop. Runs once, before the first lookup can miss.
  static const bool builtins_registered = [] {
    detail::register_builtin_online_estimators(registry);
    detail::register_builtin_replay_estimators(registry);
    return true;
  }();
  (void)builtins_registered;
  return registry;
}

EstimatorRegistry& estimator_registry() {
  return EstimatorRegistry::instance();
}

void EstimatorRegistry::register_family(Family family) {
  validate_family("estimator", family.name, family.tunables);
  if (families_.count(family.name) != 0) {
    throw EstimatorSpecError("estimator family '" + family.name +
                             "' registered twice");
  }
  if (family.replay ? !family.make_replay : !family.make_online) {
    throw EstimatorSpecError("estimator family '" + family.name +
                             "': missing " +
                             (family.replay ? "replay" : "online") +
                             " factory");
  }
  families_.emplace(family.name, std::move(family));
}

bool EstimatorRegistry::has_family(std::string_view name) const {
  return families_.find(name) != families_.end();
}

const EstimatorRegistry::Family& EstimatorRegistry::family(
    std::string_view name) const {
  const auto it = families_.find(name);
  if (it == families_.end()) {
    std::string known;
    for (const auto* entry : families())
      known += (known.empty() ? "" : ", ") + entry->name;
    throw EstimatorSpecError("unknown estimator family '" +
                             std::string(name) + "' (known: " + known + ")");
  }
  return it->second;
}

std::vector<const EstimatorRegistry::Family*> EstimatorRegistry::families()
    const {
  std::vector<const Family*> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) out.push_back(&family);
  std::sort(out.begin(), out.end(), [](const Family* a, const Family* b) {
    return a->order != b->order ? a->order < b->order : a->name < b->name;
  });
  return out;
}

EstimatorSpec EstimatorRegistry::parse(std::string_view text) const {
  const SpecSyntax syntax = parse_spec_syntax(text, "estimator");
  const Family& entry = family(syntax.family);
  EstimatorSpec spec = canonicalize(syntax, entry.tunables, "estimator");
  if (entry.check) {
    const std::string error = entry.check(resolve(spec));
    if (!error.empty()) throw EstimatorSpecError(syntax.context + ": " + error);
  }
  return spec;
}

std::vector<EstimatorSpec> EstimatorRegistry::parse_list(
    std::string_view text) const {
  return parse_spec_list(text, "estimator", [this](std::string_view item) {
    return parse(item);
  });
}

bool EstimatorRegistry::is_replay(const EstimatorSpec& spec) const {
  return family(spec.family).replay;
}

ResolvedSpec EstimatorRegistry::resolve(const EstimatorSpec& spec) const {
  return ResolvedSpec(spec, family(spec.family).tunables, "estimator");
}

std::unique_ptr<ClockEstimator> EstimatorRegistry::make_online(
    const EstimatorSpec& spec, const core::Params& params,
    double nominal_period) const {
  const Family& entry = family(spec.family);
  // Replay families cannot run online; the caller routes them through
  // make_replay over the recorded trace (see harness/replay.hpp).
  TSC_EXPECTS(!entry.replay);
  return entry.make_online(resolve(spec), params, nominal_period);
}

std::unique_ptr<ReplayEstimator> EstimatorRegistry::make_replay(
    const EstimatorSpec& spec, const core::Params& params,
    double nominal_period, ThreadPool* pool) const {
  const Family& entry = family(spec.family);
  TSC_EXPECTS(entry.replay);
  return entry.make_replay(resolve(spec), params, nominal_period, pool);
}

}  // namespace tscclock::harness
