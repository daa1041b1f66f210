#include "harness/estimator_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/contracts.hpp"
#include "common/table.hpp"
#include "harness/estimator.hpp"
#include "harness/replay.hpp"

namespace tscclock::harness {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0)
    text.remove_prefix(1);
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())) != 0)
    text.remove_suffix(1);
  return text;
}

bool valid_family_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (std::islower(static_cast<unsigned char>(c)) != 0) ||
           (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '_' ||
           c == '-';
  });
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

/// Canonicalize one value against its tunable, or throw with a message that
/// names the spec/key it came from.
std::string canonical_value(const TunableSpec& tunable, std::string_view raw,
                            const std::string& context) {
  const std::string value(trim(raw));
  if (value.empty()) {
    throw EstimatorSpecError(context + ": empty value for key '" +
                             tunable.key + "'");
  }
  switch (tunable.type) {
    case TunableType::kBool: {
      if (value == "0" || value == "false") return "0";
      if (value == "1" || value == "true") return "1";
      throw EstimatorSpecError(context + ": invalid boolean '" + value +
                               "' for key '" + tunable.key +
                               "' (expected 0, 1, true or false)");
    }
    case TunableType::kDouble: {
      char* end = nullptr;
      double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
        throw EstimatorSpecError(context + ": invalid number '" + value +
                                 "' for key '" + tunable.key + "'");
      }
      // Normalize -0 to +0 so "-0" canonicalizes (and default-elides) like
      // "0" instead of escaping as the distinct label value "-0".
      if (v == 0.0 && std::signbit(v)) v = std::abs(v);
      if (v < tunable.min_value ||
          (tunable.min_exclusive && v == tunable.min_value)) {
        throw EstimatorSpecError(
            context + ": value " + value + " for key '" + tunable.key +
            "' must be " + (tunable.min_exclusive ? "> " : ">= ") +
            strfmt("%g", tunable.min_value));
      }
      return strfmt("%g", v);
    }
    case TunableType::kChoice: {
      if (std::find(tunable.choices.begin(), tunable.choices.end(), value) !=
          tunable.choices.end())
        return value;
      throw EstimatorSpecError(context + ": invalid value '" + value +
                               "' for key '" + tunable.key + "' (expected " +
                               join(tunable.choices) + ")");
    }
  }
  throw EstimatorSpecError(context + ": unhandled tunable type");
}

}  // namespace

// -- EstimatorSpec ---------------------------------------------------------

std::string EstimatorSpec::label() const {
  if (overrides.empty()) return family;
  std::string out = family + "(";
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    if (i) out += ",";
    out += overrides[i].first + "=" + overrides[i].second;
  }
  return out + ")";
}

// -- ResolvedSpec ----------------------------------------------------------

bool ResolvedSpec::get_bool(std::string_view key) const {
  const auto it = values_.find(key);
  TSC_EXPECTS(it != values_.end());
  TSC_EXPECTS(it->second.type == TunableType::kBool);
  return it->second.value == "1";
}

double ResolvedSpec::get_double(std::string_view key) const {
  const auto it = values_.find(key);
  TSC_EXPECTS(it != values_.end());
  TSC_EXPECTS(it->second.type == TunableType::kDouble);
  return std::strtod(it->second.value.c_str(), nullptr);
}

const std::string& ResolvedSpec::get_choice(std::string_view key) const {
  const auto it = values_.find(key);
  TSC_EXPECTS(it != values_.end());
  TSC_EXPECTS(it->second.type == TunableType::kChoice);
  return it->second.value;
}

bool ResolvedSpec::is_overridden(std::string_view key) const {
  const auto it = values_.find(key);
  TSC_EXPECTS(it != values_.end());
  return it->second.overridden;
}

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
  if (!valid_family_name(family.name)) {
    throw EstimatorSpecError("estimator family '" + family.name +
                             "': name must be non-empty [a-z0-9_-]");
  }
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
  for (const auto& tunable : family.tunables) {
    const std::string context =
        "estimator family '" + family.name + "' tunable '" + tunable.key +
        "'";
    if (!valid_family_name(tunable.key)) {
      throw EstimatorSpecError(context + ": key must be non-empty [a-z0-9_-]");
    }
    const auto same_key = [&](const TunableSpec& other) {
      return &other != &tunable && other.key == tunable.key;
    };
    if (std::any_of(family.tunables.begin(), family.tunables.end(), same_key))
      throw EstimatorSpecError(context + ": declared twice");
    if (tunable.type == TunableType::kChoice && tunable.choices.empty())
      throw EstimatorSpecError(context + ": choice tunable with no choices");
    // The default must canonicalize to itself, or default-elision breaks.
    if (canonical_value(tunable, tunable.default_value, context) !=
        tunable.default_value)
      throw EstimatorSpecError(context + ": default '" +
                               tunable.default_value + "' is not canonical");
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
    std::vector<std::string> known;
    for (const auto* entry : families()) known.push_back(entry->name);
    throw EstimatorSpecError("unknown estimator family '" +
                             std::string(name) + "' (known: " + join(known) +
                             ")");
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
  const std::string_view spec_text = trim(text);
  const std::string context = "estimator spec '" + std::string(spec_text) + "'";
  if (spec_text.empty()) throw EstimatorSpecError(context + ": empty spec");

  const std::size_t open = spec_text.find('(');
  std::string_view family_text = spec_text;
  std::string_view body;
  bool has_params = false;
  if (open != std::string_view::npos) {
    if (spec_text.back() != ')') {
      throw EstimatorSpecError(context + ": missing ')'");
    }
    family_text = trim(spec_text.substr(0, open));
    body = spec_text.substr(open + 1, spec_text.size() - open - 2);
    if (body.find('(') != std::string_view::npos ||
        body.find(')') != std::string_view::npos) {
      throw EstimatorSpecError(context + ": nested or unbalanced parentheses");
    }
    has_params = true;
  } else if (spec_text.find(')') != std::string_view::npos) {
    throw EstimatorSpecError(context + ": unmatched ')'");
  }
  if (!valid_family_name(family_text)) {
    throw EstimatorSpecError(context + ": malformed family name '" +
                             std::string(family_text) + "'");
  }

  const Family& entry = family(family_text);

  // key → canonical value, parse order irrelevant (canonical order is the
  // family's declared order, applied below).
  std::map<std::string, std::string> parsed;
  if (has_params && !trim(body).empty()) {
    std::string_view rest = body;
    while (true) {
      const std::size_t comma = rest.find(',');
      const std::string_view item = trim(rest.substr(0, comma));
      const std::size_t eq = item.find('=');
      if (item.empty() || eq == std::string_view::npos || eq == 0) {
        throw EstimatorSpecError(context + ": expected key=value, got '" +
                                 std::string(item) + "'");
      }
      const std::string key(trim(item.substr(0, eq)));
      const auto tunable = std::find_if(
          entry.tunables.begin(), entry.tunables.end(),
          [&](const TunableSpec& t) { return t.key == key; });
      if (tunable == entry.tunables.end()) {
        std::vector<std::string> keys;
        for (const auto& t : entry.tunables) keys.push_back(t.key);
        throw EstimatorSpecError(
            context + ": unknown key '" + key + "' for estimator '" +
            entry.name + "'" +
            (keys.empty() ? std::string(" (no tunable keys)")
                          : " (tunable keys: " + join(keys) + ")"));
      }
      if (parsed.count(key) != 0) {
        throw EstimatorSpecError(context + ": duplicate key '" + key + "'");
      }
      parsed.emplace(key,
                     canonical_value(*tunable, item.substr(eq + 1), context));
      if (comma == std::string_view::npos) break;
      rest = rest.substr(comma + 1);
    }
  }

  EstimatorSpec spec;
  spec.family = entry.name;
  for (const auto& tunable : entry.tunables) {
    const auto it = parsed.find(tunable.key);
    if (it == parsed.end()) continue;
    // Default-elision: an explicit value equal to the default is dropped, so
    // robust(use_local_rate=1) ≡ robust() ≡ robust and labels are canonical.
    if (it->second == tunable.default_value) continue;
    spec.overrides.emplace_back(tunable.key, it->second);
  }
  if (entry.check) {
    const std::string error = entry.check(resolve(spec));
    if (!error.empty()) throw EstimatorSpecError(context + ": " + error);
  }
  return spec;
}

std::vector<EstimatorSpec> EstimatorRegistry::parse_list(
    std::string_view text) const {
  const std::string context = "estimator list '" + std::string(text) + "'";
  std::vector<std::string> items;
  std::string current;
  int depth = 0;
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')' && --depth < 0) {
      throw EstimatorSpecError(context + ": unmatched ')'");
    }
    if (c == ',' && depth == 0) {
      items.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  items.push_back(current);

  std::vector<EstimatorSpec> specs;
  specs.reserve(items.size());
  for (const auto& item : items) {
    // An empty item is always a typo ("robust,,naive", a trailing comma):
    // silently dropping it would run a different axis than asked for.
    if (trim(item).empty()) {
      throw EstimatorSpecError(context + ": empty item");
    }
    specs.push_back(parse(item));
  }
  return specs;
}

bool EstimatorRegistry::is_replay(const EstimatorSpec& spec) const {
  return family(spec.family).replay;
}

ResolvedSpec EstimatorRegistry::resolve(const EstimatorSpec& spec) const {
  const Family& entry = family(spec.family);
  ResolvedSpec resolved;
  for (const auto& tunable : entry.tunables) {
    resolved.values_[tunable.key] =
        ResolvedSpec::Value{tunable.default_value, tunable.type, false};
  }
  for (const auto& [key, value] : spec.overrides) {
    const auto it = resolved.values_.find(key);
    if (it == resolved.values_.end()) {
      throw EstimatorSpecError("estimator spec '" + spec.label() +
                               "': unknown key '" + key + "' for estimator '" +
                               entry.name + "'");
    }
    it->second.value = value;
    it->second.overridden = true;
  }
  return resolved;
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
