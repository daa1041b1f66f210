// The spec grammar shared by every string-keyed sweep axis.
//
// A spec names a family plus the typed key=value tunables it overrides:
// "robust", "robust(use_local_rate=0)", "fleet(n=8,hierarchy=1)".
// Whitespace is tolerated around every token; family names and keys are
// [a-z0-9_-]+. Values canonicalize by type (booleans 0/1/true/false → 0/1,
// doubles → %g, counts → decimal, choices verbatim), keys re-order to the
// family's declared order, and a value equal to its default is elided — so
// "robust()" ≡ "robust(use_local_rate=1)" ≡ "robust" and
// parse(label(parse(s))) == parse(s) for every accepted s. The canonical
// label is the identity every report, table, dump and scenario name uses.
//
// This module owns the text format; each axis on top of it (the estimator
// registry, harness/estimator_spec.hpp; the fleet axis,
// sweep/scenario_grid.hpp) owns only its family tables and what the
// resolved values build.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tscclock {

/// Malformed spec text or an invalid family table. The message names the
/// spec and the fault precisely enough to print verbatim as a CLI usage
/// error.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& what) : std::runtime_error(what) {}
};

/// Value type of one tunable key.
enum class TunableType {
  kBool,    ///< accepted: 0/1/true/false — canonical 0/1
  kDouble,  ///< finite decimal — canonical %g
  kChoice,  ///< one of `choices`, verbatim
  kCount,   ///< unsigned decimal in [min_value, max_value] — canonical %llu
};

/// One tunable key of a family: type, canonical default, and the metadata
/// the tunables table surfaces.
struct TunableSpec {
  std::string key;
  TunableType type = TunableType::kBool;
  /// Canonical spelling of the default. A parsed value equal to it is elided
  /// from the canonical label (and from the overrides), so the default also
  /// means "inherit whatever the base configuration says".
  std::string default_value;
  std::string description;
  std::vector<std::string> choices = {};  ///< kChoice only
  /// kDouble: overridden values below (or, with min_exclusive, at) this
  /// bound are parse errors — so boundary specs die as exit-2 usage errors,
  /// never as runtime FAILED cells. kCount: the inclusive lower bound.
  double min_value = -1e308;
  bool min_exclusive = false;
  double max_value = 1e308;  ///< kCount only: the inclusive upper bound

  static TunableSpec boolean(std::string key, std::string default_value,
                             std::string description) {
    return {.key = std::move(key), .type = TunableType::kBool,
            .default_value = std::move(default_value),
            .description = std::move(description)};
  }
  static TunableSpec number(std::string key, std::string default_value,
                            std::string description,
                            double min_value = -1e308,
                            bool min_exclusive = false) {
    return {.key = std::move(key), .type = TunableType::kDouble,
            .default_value = std::move(default_value),
            .description = std::move(description), .min_value = min_value,
            .min_exclusive = min_exclusive};
  }
  static TunableSpec choice(std::string key, std::string default_value,
                            std::string description,
                            std::vector<std::string> choices) {
    return {.key = std::move(key), .type = TunableType::kChoice,
            .default_value = std::move(default_value),
            .description = std::move(description),
            .choices = std::move(choices)};
  }
};

/// A canonical spec: a family name plus the non-default tunable overrides
/// in the family's declared key order (hand-built specs carry an empty
/// list or come from a parse).
struct Spec {
  std::string family;
  std::vector<std::pair<std::string, std::string>> overrides;

  /// Canonical label, e.g. "robust" or "robust(use_local_rate=0)";
  /// parse(label()) == *this for parsed specs.
  [[nodiscard]] std::string label() const;

  bool operator==(const Spec&) const = default;
};

/// One spec checked for syntax only, before any family table is consulted.
struct SpecSyntax {
  std::string context;  ///< "<noun> spec '<text>'", prefixes every message
  std::string family;
  /// (key, value) as written, each trimmed; no key repeats.
  std::vector<std::pair<std::string, std::string>> items;
};

std::string_view trim(std::string_view text);

/// Check `family` or `family(key=value,…)`: balanced, unnested parens,
/// [a-z0-9_-] family name and keys, every item key=value, no repeated key.
SpecSyntax parse_spec_syntax(std::string_view text, std::string_view noun);

/// Canonicalize the items against the family's declared `tunables`. Throws
/// on an unknown key, or an empty, ill-typed or out-of-bounds value.
Spec canonicalize(const SpecSyntax& syntax,
                  std::span<const TunableSpec> tunables,
                  std::string_view noun);

/// The canonical spec of one canonical value per declared tunable (declared
/// order), defaults elided: renders a configuration built without text.
Spec spec_from_values(std::string family,
                      std::span<const TunableSpec> tunables,
                      std::span<const std::string> values);
std::string format_bool_value(bool value);
std::string format_double_value(double value);

/// Split a comma-separated list; commas inside parens do not split. An
/// unmatched ')' or an empty item ("a,,b", a trailing comma) throws
/// SpecError prefixed with `context`.
std::vector<std::string_view> split_list(std::string_view text,
                                        const std::string& context);

/// Parse each item of split_list with `parse_one`. A repeated canonical
/// label ("robust,robust()") throws too: like an empty item, it would run a
/// different axis than the one asked for.
std::vector<Spec> parse_spec_list(
    std::string_view text, std::string_view noun,
    const std::function<Spec(std::string_view item)>& parse_one);

/// Refuse a family table whose name or keys are not [a-z0-9_-], whose keys
/// repeat, whose choice key has no choices, or whose defaults are not
/// canonical (default elision relies on it).
void validate_family(std::string_view noun, std::string_view name,
                     std::span<const TunableSpec> tunables);

/// A spec resolved against its family: every tunable key present, override
/// or default, with typed accessors for what the spec builds.
class ResolvedSpec {
 public:
  /// Throws SpecError when the spec names a key the table does not declare.
  ResolvedSpec(const Spec& spec, std::span<const TunableSpec> tunables,
               std::string_view noun);

  [[nodiscard]] bool get_bool(std::string_view key) const;
  [[nodiscard]] double get_double(std::string_view key) const;
  [[nodiscard]] std::uint64_t get_count(std::string_view key) const;
  [[nodiscard]] const std::string& get_choice(std::string_view key) const;
  /// True when the spec set this key explicitly (factories that treat the
  /// default as "inherit from the base configuration" branch on this).
  [[nodiscard]] bool is_overridden(std::string_view key) const;

 private:
  struct Value {
    std::string value;
    TunableType type = TunableType::kBool;
    bool overridden = false;
  };
  const Value& at(std::string_view key, TunableType type) const;

  std::map<std::string, Value, std::less<>> values_;
};

struct TunableFamily {
  std::string_view name;
  std::span<const TunableSpec> tunables;
};

/// The tunables table of every --list-* listing: one row per key
/// (<family_header>, key, type, default, description).
void print_tunables(std::ostream& out, const std::string& family_header,
                    std::span<const TunableFamily> families);

}  // namespace tscclock
