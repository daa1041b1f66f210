// EstimatorSpec / EstimatorRegistry: the parameterized, string-keyed
// estimator axis.
//
// The paper's §6/Fig. 9 sensitivity results and the Params feature toggles
// (use_local_rate, enable_level_shift, …) are ablation *variants* of one
// algorithm. A closed enum cannot carry them: every variant would need a new
// enumerator plus edits to to_string/parse/make in lockstep. Instead the
// axis is a registry of *families*, each with typed key=value tunables, and
// a spec names a family plus the tunables it overrides:
//
//   robust                         — the §6 algorithm, paper defaults
//   robust(use_local_rate=0)       — same, eq. (21)/(23) prediction off
//   robust(poll_period=64)         — windows sized for a 64 s poll period
//   offline(split=shifts)          — §5.3 smoother, trace split at shifts
//
// A registry Family declares its name, whether it runs online (a
// ClockEstimator driven by ClockSession) or on the replay lane (a
// ReplayEstimator scored post-hoc over the recorded trace), its tunables
// with defaults, and a factory closure building the estimator from the
// resolved parameters. `tools/sweep --list-estimators` renders all of it;
// adding a future baseline or ablation is a single registration.
//
// Canonicalization contract: parse("robust( use_local_rate = 0 )").label()
// is "robust(use_local_rate=0)" — values canonicalized, keys in the
// family's declared order, defaults elided (so "robust()" ≡ "robust" and
// parse ∘ label is idempotent). The canonical label is the identity used by
// reports, comparison tables, aggregates and --csv dumps. The estimator
// axis is never part of a scenario's RNG identity, so every spec of a
// scenario scores the same seed and packets by construction.
//
// Built-in families self-register from the translation units that implement
// them (harness/estimator.cpp, harness/replay.cpp); the registry core never
// names a family. Out-of-tree estimators register the same way — define a
// file-scope `EstimatorRegistrar` in a TU your binary links (beware: a
// static-library object nothing references is dropped by the linker; the
// built-ins are anchored from EstimatorRegistry::instance() so they can
// never vanish).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/params.hpp"

namespace tscclock::harness {

class ClockEstimator;   // harness/estimator.hpp
class ReplayEstimator;  // harness/replay.hpp

/// Malformed spec text or an invalid registration. The message is precise
/// enough to print verbatim as a CLI usage error (exit 2 in tools/sweep).
class EstimatorSpecError : public std::runtime_error {
 public:
  explicit EstimatorSpecError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Value type of one tunable key.
enum class TunableType {
  kBool,    ///< accepted: 0/1/true/false — canonical 0/1
  kDouble,  ///< finite decimal — canonical %g
  kChoice,  ///< one of `choices`, verbatim
};

/// One tunable key of a family: type, canonical default, and the metadata
/// --list-estimators surfaces.
struct TunableSpec {
  std::string key;
  TunableType type = TunableType::kBool;
  /// Canonical spelling of the default. A parsed value equal to it is elided
  /// from the canonical label (and from the overrides), so the default also
  /// means "inherit whatever the session's base configuration says".
  std::string default_value;
  std::string description;
  std::vector<std::string> choices;  ///< kChoice only
  /// kDouble only: overridden values below (or, with min_exclusive, at) this
  /// bound are parse errors — so boundary specs die as exit-2 usage errors,
  /// never as runtime FAILED cells.
  double min_value = -1e308;
  bool min_exclusive = false;

  static TunableSpec boolean(std::string key, std::string default_value,
                             std::string description) {
    return {std::move(key), TunableType::kBool, std::move(default_value),
            std::move(description), {}, -1e308, false};
  }
  static TunableSpec number(std::string key, std::string default_value,
                            std::string description,
                            double min_value = -1e308,
                            bool min_exclusive = false) {
    return {std::move(key), TunableType::kDouble, std::move(default_value),
            std::move(description), {}, min_value, min_exclusive};
  }
  static TunableSpec choice(std::string key, std::string default_value,
                            std::string description,
                            std::vector<std::string> choices) {
    return {std::move(key), TunableType::kChoice, std::move(default_value),
            std::move(description), std::move(choices), -1e308, false};
  }
};

/// A parsed, validated, canonical estimator spec: a registered family name
/// plus the non-default tunable overrides in declared-key order.
struct EstimatorSpec {
  std::string family;
  /// (key, canonical value) pairs, family-declared key order, defaults
  /// elided. Populated by EstimatorRegistry::parse — hand-built specs should
  /// carry an empty list (bare family) or go through parse().
  std::vector<std::pair<std::string, std::string>> overrides;

  /// Canonical label, e.g. "robust" or "robust(use_local_rate=0)". Flows
  /// through ScenarioResult, comparison tables, aggregates and --csv dumps;
  /// parse(label()) == *this for registry-produced specs.
  [[nodiscard]] std::string label() const;

  bool operator==(const EstimatorSpec&) const = default;
};

/// A spec resolved against its family: every tunable key present, override
/// or default, with typed accessors for the factories.
class ResolvedSpec {
 public:
  [[nodiscard]] bool get_bool(std::string_view key) const;
  [[nodiscard]] double get_double(std::string_view key) const;
  [[nodiscard]] const std::string& get_choice(std::string_view key) const;
  /// True when the spec set this key explicitly (factories that treat the
  /// default as "inherit from the base Params" branch on this).
  [[nodiscard]] bool is_overridden(std::string_view key) const;

 private:
  friend class EstimatorRegistry;
  struct Value {
    std::string value;
    TunableType type = TunableType::kBool;
    bool overridden = false;
  };
  std::map<std::string, Value, std::less<>> values_;
};

class EstimatorRegistry {
 public:
  using OnlineFactory = std::function<std::unique_ptr<ClockEstimator>(
      const ResolvedSpec& spec, const core::Params& params,
      double nominal_period)>;
  /// `pool` may be null; a replay estimator that can spread its work uses
  /// it, and its output must not depend on it.
  using ReplayFactory = std::function<std::unique_ptr<ReplayEstimator>(
      const ResolvedSpec& spec, const core::Params& params,
      double nominal_period, ThreadPool* pool)>;

  /// One registered estimator family.
  struct Family {
    std::string name;         ///< spec family key, e.g. "robust"
    std::string description;  ///< one line for --list-estimators
    /// Replay families are scored post-hoc over the recorded trace
    /// (non-causal; see harness/replay.hpp) instead of online.
    bool replay = false;
    /// Listing/reporting order (lower first, ties by name) — registration
    /// order across translation units is link-order dependent, the listing
    /// must not be.
    int order = 100;
    std::vector<TunableSpec> tunables;
    /// Optional parse-time check over the resolved values: returns an error
    /// message, empty when valid. For limits a per-key minimum cannot
    /// state, so such specs also die as usage errors, not FAILED cells.
    std::function<std::string(const ResolvedSpec& spec)> check;
    OnlineFactory make_online;  ///< required when !replay
    ReplayFactory make_replay;  ///< required when replay
  };

  /// The process-wide registry, built-ins guaranteed present.
  static EstimatorRegistry& instance();

  /// Register a family. Throws EstimatorSpecError on a duplicate name, a
  /// malformed name (must be [a-z0-9_-]+), a missing factory, or a tunable
  /// whose default does not parse as its own type.
  void register_family(Family family);

  [[nodiscard]] bool has_family(std::string_view name) const;
  /// Throws EstimatorSpecError (naming the known families) when unknown.
  [[nodiscard]] const Family& family(std::string_view name) const;
  /// Every registered family in listing order.
  [[nodiscard]] std::vector<const Family*> families() const;

  /// Parse one spec: `family` or `family(key=value,…)`, whitespace tolerated
  /// around every token. Throws EstimatorSpecError with a precise message on
  /// unbalanced parens, unknown family, unknown/duplicate keys, empty or
  /// ill-typed values, or values the family's check refuses. The result is
  /// canonical (see EstimatorSpec::label).
  [[nodiscard]] EstimatorSpec parse(std::string_view text) const;

  /// Parse a comma-separated spec list; commas inside parens do not split
  /// ("robust,robust(use_local_rate=0,enable_aging=0)" is two specs). Empty
  /// items ("a,,b", trailing comma) are errors, like every malformed value.
  [[nodiscard]] std::vector<EstimatorSpec> parse_list(
      std::string_view text) const;

  /// True when the spec's family runs on the replay lane.
  [[nodiscard]] bool is_replay(const EstimatorSpec& spec) const;

  /// Resolve every tunable of the spec's family (override or default).
  [[nodiscard]] ResolvedSpec resolve(const EstimatorSpec& spec) const;

  /// Build a fresh online estimator from the resolved spec. `params` is the
  /// session's base configuration (per-scenario poll period etc.); factories
  /// apply only the *overridden* keys on top of it, so a bare spec is
  /// bit-identical to constructing the adapter directly. Precondition:
  /// !is_replay(spec).
  [[nodiscard]] std::unique_ptr<ClockEstimator> make_online(
      const EstimatorSpec& spec, const core::Params& params,
      double nominal_period) const;

  /// Replay-lane counterpart of make_online. Precondition: is_replay(spec).
  /// The estimator runs its work on `pool` when given one.
  [[nodiscard]] std::unique_ptr<ReplayEstimator> make_replay(
      const EstimatorSpec& spec, const core::Params& params,
      double nominal_period, ThreadPool* pool = nullptr) const;

 private:
  std::map<std::string, Family, std::less<>> families_;
};

/// Shorthand for EstimatorRegistry::instance().
EstimatorRegistry& estimator_registry();

/// Static self-registration hook:
///   static const EstimatorRegistrar kMyEstimator{{.name = "mine", …}};
class EstimatorRegistrar {
 public:
  explicit EstimatorRegistrar(EstimatorRegistry::Family family) {
    EstimatorRegistry::instance().register_family(std::move(family));
  }
};

namespace detail {
// Built-in registrations, defined next to the estimator implementations and
// anchored from EstimatorRegistry::instance() so the registry is never
// missing its built-ins regardless of link order.
void register_builtin_online_estimators(EstimatorRegistry& registry);
void register_builtin_replay_estimators(EstimatorRegistry& registry);
}  // namespace detail

}  // namespace tscclock::harness
