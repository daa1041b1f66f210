#include "common/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/contracts.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"

namespace tscclock {

namespace {

bool is_spec_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (std::islower(static_cast<unsigned char>(c)) != 0) ||
           (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '_' ||
           c == '-';
  });
}

std::string join(std::span<const std::string> items, const char* separator) {
  std::string out;
  for (const auto& item : items) out += (out.empty() ? "" : separator) + item;
  return out;
}

/// Canonicalize one value against its tunable, or throw with a message that
/// names the spec/key it came from.
std::string canonical_value(const TunableSpec& tunable, std::string_view raw,
                            const std::string& context) {
  const std::string value(trim(raw));
  if (value.empty()) {
    throw SpecError(context + ": empty value for key '" + tunable.key + "'");
  }
  switch (tunable.type) {
    case TunableType::kBool: {
      if (value == "0" || value == "false") return "0";
      if (value == "1" || value == "true") return "1";
      throw SpecError(context + ": invalid boolean '" + value +
                      "' for key '" + tunable.key +
                      "' (expected 0, 1, true or false)");
    }
    case TunableType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !std::isfinite(v)) {
        throw SpecError(context + ": invalid number '" + value +
                        "' for key '" + tunable.key + "'");
      }
      if (v < tunable.min_value ||
          (tunable.min_exclusive && v == tunable.min_value)) {
        throw SpecError(context + ": value " + value + " for key '" +
                        tunable.key + "' must be " +
                        (tunable.min_exclusive ? "> " : ">= ") +
                        strfmt("%g", tunable.min_value));
      }
      return format_double_value(v);
    }
    case TunableType::kChoice: {
      if (std::find(tunable.choices.begin(), tunable.choices.end(), value) !=
          tunable.choices.end())
        return value;
      throw SpecError(context + ": invalid value '" + value + "' for key '" +
                      tunable.key + "' (expected " +
                      join(tunable.choices, ", ") + ")");
    }
    case TunableType::kCount: {
      std::uint64_t n = 0;
      try {
        n = parse_u64_exact(value);
      } catch (const std::runtime_error&) {
        throw SpecError(context + ": invalid count '" + value +
                        "' for key '" + tunable.key + "'");
      }
      if (static_cast<double>(n) < tunable.min_value ||
          static_cast<double>(n) > tunable.max_value) {
        throw SpecError(context + ": " + tunable.key + " must be in [" +
                        strfmt("%g", tunable.min_value) + ", " +
                        strfmt("%g", tunable.max_value) + "], got " + value);
      }
      return format_count(n);
    }
  }
  throw SpecError(context + ": unhandled tunable type");
}

std::string type_name(const TunableSpec& tunable) {
  switch (tunable.type) {
    case TunableType::kBool: return "bool";
    case TunableType::kDouble: return "double";
    case TunableType::kChoice: return join(tunable.choices, "|");
    case TunableType::kCount:
      return strfmt("int [%g,%g]", tunable.min_value, tunable.max_value);
  }
  return "";
}

}  // namespace

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0)
    text.remove_prefix(1);
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())) != 0)
    text.remove_suffix(1);
  return text;
}

std::string format_bool_value(bool value) { return value ? "1" : "0"; }

std::string format_double_value(double value) {
  // Normalize -0 to +0 so "-0" canonicalizes (and default-elides) like
  // "0" instead of escaping as the distinct label value "-0".
  if (value == 0.0) value = 0.0;
  return strfmt("%g", value);
}

std::string Spec::label() const {
  std::string body;
  for (const auto& [key, value] : overrides)
    body += (body.empty() ? "" : ",") + key + "=" + value;
  return body.empty() ? family : family + "(" + body + ")";
}

// -- Parsing ---------------------------------------------------------------

SpecSyntax parse_spec_syntax(std::string_view text, std::string_view noun) {
  const std::string_view spec_text = trim(text);
  SpecSyntax syntax;
  syntax.context =
      std::string(noun) + " spec '" + std::string(spec_text) + "'";
  const std::string& context = syntax.context;
  if (spec_text.empty()) throw SpecError(context + ": empty spec");

  const std::size_t open = spec_text.find('(');
  std::string_view family_text = spec_text;
  std::string_view body;
  if (open != std::string_view::npos) {
    if (spec_text.back() != ')') throw SpecError(context + ": missing ')'");
    family_text = trim(spec_text.substr(0, open));
    body = trim(spec_text.substr(open + 1, spec_text.size() - open - 2));
    if (body.find('(') != std::string_view::npos ||
        body.find(')') != std::string_view::npos) {
      throw SpecError(context + ": nested or unbalanced parentheses");
    }
  } else if (spec_text.find(')') != std::string_view::npos) {
    throw SpecError(context + ": unmatched ')'");
  }
  if (!is_spec_name(family_text)) {
    throw SpecError(context + ": malformed family name '" +
                    std::string(family_text) + "'");
  }
  syntax.family = std::string(family_text);

  // "family()" and "family( )" carry no items.
  for (std::size_t start = 0; !body.empty() && start <= body.size();) {
    const std::size_t comma = std::min(body.find(',', start), body.size());
    const std::string_view item = trim(body.substr(start, comma - start));
    start = comma + 1;
    const std::size_t eq = item.find('=');
    if (item.empty() || eq == std::string_view::npos || eq == 0) {
      throw SpecError(context + ": expected key=value, got '" +
                      std::string(item) + "'");
    }
    std::string key(trim(item.substr(0, eq)));
    if (!is_spec_name(key)) {
      throw SpecError(context + ": malformed key '" + key + "'");
    }
    for (const auto& [seen, value] : syntax.items) {
      if (seen == key) {
        throw SpecError(context + ": duplicate key '" + key + "'");
      }
    }
    syntax.items.emplace_back(std::move(key),
                              std::string(trim(item.substr(eq + 1))));
  }
  return syntax;
}

Spec canonicalize(const SpecSyntax& syntax,
                  std::span<const TunableSpec> tunables,
                  std::string_view noun) {
  std::vector<std::string> values;
  values.reserve(tunables.size());
  for (const auto& tunable : tunables) values.push_back(tunable.default_value);
  for (const auto& [key, raw] : syntax.items) {
    const auto tunable =
        std::find_if(tunables.begin(), tunables.end(),
                     [&](const TunableSpec& t) { return t.key == key; });
    if (tunable == tunables.end()) {
      std::vector<std::string> keys;
      for (const auto& t : tunables) keys.push_back(t.key);
      throw SpecError(
          syntax.context + ": unknown key '" + key + "' for " +
          std::string(noun) + " '" + syntax.family + "'" +
          (keys.empty() ? std::string(" (no tunable keys)")
                        : " (tunable keys: " + join(keys, ", ") + ")"));
    }
    values[static_cast<std::size_t>(tunable - tunables.begin())] =
        canonical_value(*tunable, raw, syntax.context);
  }
  return spec_from_values(syntax.family, tunables, values);
}

Spec spec_from_values(std::string family,
                      std::span<const TunableSpec> tunables,
                      std::span<const std::string> values) {
  TSC_EXPECTS(values.size() == tunables.size());
  Spec spec;
  spec.family = std::move(family);
  for (std::size_t i = 0; i < tunables.size(); ++i) {
    // Default-elision: a value equal to the default is dropped, so
    // robust(use_local_rate=1) ≡ robust() ≡ robust and labels are canonical.
    if (values[i] == tunables[i].default_value) continue;
    spec.overrides.emplace_back(tunables[i].key, values[i]);
  }
  return spec;
}

std::vector<std::string_view> split_list(std::string_view text,
                                        const std::string& context) {
  std::vector<std::string_view> items;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : ',';
    if (c == '(') ++depth;
    if (c == ')' && --depth < 0) throw SpecError(context + ": unmatched ')'");
    if (c != ',' || (depth > 0 && i < text.size())) continue;
    items.push_back(text.substr(start, i - start));
    start = i + 1;
    // An empty item is always a typo ("robust,,naive", a trailing comma):
    // silently dropping it would run a different axis than asked for.
    if (trim(items.back()).empty()) throw SpecError(context + ": empty item");
  }
  return items;
}

std::vector<Spec> parse_spec_list(
    std::string_view text, std::string_view noun,
    const std::function<Spec(std::string_view item)>& parse_one) {
  const std::string context =
      std::string(noun) + " list '" + std::string(text) + "'";
  std::vector<Spec> specs;
  for (const std::string_view item : split_list(text, context)) {
    Spec spec = parse_one(item);
    if (std::find(specs.begin(), specs.end(), spec) != specs.end()) {
      throw SpecError(context + ": duplicate " + std::string(noun) +
                      " spec '" + spec.label() + "'");
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

void validate_family(std::string_view noun, std::string_view name,
                     std::span<const TunableSpec> tunables) {
  const std::string family_context =
      std::string(noun) + " family '" + std::string(name) + "'";
  if (!is_spec_name(name)) {
    throw SpecError(family_context + ": name must be non-empty [a-z0-9_-]");
  }
  for (const auto& tunable : tunables) {
    const std::string context =
        family_context + " tunable '" + tunable.key + "'";
    if (!is_spec_name(tunable.key)) {
      throw SpecError(context + ": key must be non-empty [a-z0-9_-]");
    }
    const auto same_key = [&](const TunableSpec& other) {
      return &other != &tunable && other.key == tunable.key;
    };
    if (std::any_of(tunables.begin(), tunables.end(), same_key))
      throw SpecError(context + ": declared twice");
    if (tunable.type == TunableType::kChoice && tunable.choices.empty())
      throw SpecError(context + ": choice tunable with no choices");
    // The default must canonicalize to itself, or default-elision breaks.
    if (canonical_value(tunable, tunable.default_value, context) !=
        tunable.default_value)
      throw SpecError(context + ": default '" + tunable.default_value +
                      "' is not canonical");
  }
}

// -- ResolvedSpec ----------------------------------------------------------

ResolvedSpec::ResolvedSpec(const Spec& spec,
                           std::span<const TunableSpec> tunables,
                           std::string_view noun) {
  for (const auto& tunable : tunables) {
    values_[tunable.key] = Value{tunable.default_value, tunable.type, false};
  }
  for (const auto& [key, value] : spec.overrides) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw SpecError(std::string(noun) + " spec '" + spec.label() +
                      "': unknown key '" + key + "' for " + std::string(noun) +
                      " '" + spec.family + "'");
    }
    it->second.value = value;
    it->second.overridden = true;
  }
}

const ResolvedSpec::Value& ResolvedSpec::at(std::string_view key,
                                            TunableType type) const {
  const auto it = values_.find(key);
  TSC_EXPECTS(it != values_.end());
  TSC_EXPECTS(it->second.type == type);
  return it->second;
}

bool ResolvedSpec::get_bool(std::string_view key) const {
  return at(key, TunableType::kBool).value == "1";
}

double ResolvedSpec::get_double(std::string_view key) const {
  return std::strtod(at(key, TunableType::kDouble).value.c_str(), nullptr);
}

std::uint64_t ResolvedSpec::get_count(std::string_view key) const {
  return parse_u64_exact(at(key, TunableType::kCount).value);
}

const std::string& ResolvedSpec::get_choice(std::string_view key) const {
  return at(key, TunableType::kChoice).value;
}

bool ResolvedSpec::is_overridden(std::string_view key) const {
  const auto it = values_.find(key);
  TSC_EXPECTS(it != values_.end());
  return it->second.overridden;
}

// -- Listing ---------------------------------------------------------------

void print_tunables(std::ostream& out, const std::string& family_header,
                    std::span<const TunableFamily> families) {
  TablePrinter table({family_header, "key", "type", "default",
                      "description"});
  for (const auto& family : families) {
    for (const auto& t : family.tunables) {
      table.add_row({std::string(family.name), t.key, type_name(t),
                     t.default_value, t.description});
    }
  }
  table.print(out);
}

}  // namespace tscclock
