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
// The grammar and its canonicalization contract live in common/spec.hpp:
// parse("robust( use_local_rate = 0 )").label() is
// "robust(use_local_rate=0)", and the canonical label is the identity used
// by reports, comparison tables, aggregates and --csv dumps. The estimator
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
#include <string>
#include <string_view>
#include <vector>

#include "common/spec.hpp"
#include "common/thread_pool.hpp"
#include "core/params.hpp"

namespace tscclock::harness {

class ClockEstimator;   // harness/estimator.hpp
class ReplayEstimator;  // harness/replay.hpp

/// The estimator axis's names for the shared grammar's types: an
/// EstimatorSpec is a canonical spec of a registered family.
using EstimatorSpecError = SpecError;
using EstimatorSpec = Spec;

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
  /// missing factory, or a table validate_family refuses.
  void register_family(Family family);

  [[nodiscard]] bool has_family(std::string_view name) const;
  /// Throws EstimatorSpecError (naming the known families) when unknown.
  [[nodiscard]] const Family& family(std::string_view name) const;
  /// Every registered family in listing order.
  [[nodiscard]] std::vector<const Family*> families() const;

  /// Parse one spec into its canonical form (common/spec.hpp). Throws
  /// EstimatorSpecError with a precise message on malformed syntax, an
  /// unknown family or key, an ill-typed value, or one the family's check
  /// refuses.
  [[nodiscard]] EstimatorSpec parse(std::string_view text) const;

  /// parse() over a comma-separated list under the grammar's list rule
  /// (parse_spec_list): empty items and repeated lanes are refused.
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
