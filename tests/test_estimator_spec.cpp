// Tests for the parameterized estimator axis (harness/estimator_spec.hpp):
// spec parsing and canonicalization, the registry's family/tunable metadata,
// typed value validation with precise errors, paren-aware list splitting,
// factory dispatch (online vs replay), and out-of-tree self-registration.
//
// The load-bearing guarantees:
//   * parse → label → parse is the identity, with whitespace tolerated and
//     defaults elided ("robust()" ≡ "robust(use_local_rate=1)" ≡ "robust");
//   * every malformed shape — unbalanced parens, unknown family, unknown or
//     duplicated keys, empty values, ill-typed values, empty list items —
//     throws EstimatorSpecError with a message precise enough for a CLI
//     usage line;
//   * factories apply only the *overridden* keys on top of the caller's
//     base Params, so a bare spec builds the adapter bit-identically to
//     constructing it directly;
//   * a new family is one registration away from being a sweep lane.
#include "harness/estimator_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "harness/estimator.hpp"
#include "harness/replay.hpp"

namespace tscclock::harness {
namespace {

const EstimatorRegistry& registry() { return estimator_registry(); }

std::string error_of(const char* text) {
  try {
    (void)registry().parse(text);
  } catch (const EstimatorSpecError& e) {
    return e.what();
  }
  return "";
}

// -- Canonicalization ------------------------------------------------------

TEST(EstimatorSpecParse, RoundTripsThroughCanonicalLabels) {
  const char* inputs[] = {
      "robust",
      "robust(use_local_rate=0)",
      "robust(use_local_rate=0,enable_weighting=0)",
      "robust(poll_period=64)",
      "swntp(step_threshold=0.5)",
      "offline(split=shifts)",
  };
  for (const char* text : inputs) {
    const EstimatorSpec spec = registry().parse(text);
    EXPECT_EQ(spec.label(), text) << "inputs above are already canonical";
    EXPECT_EQ(registry().parse(spec.label()), spec) << text;
  }
}

TEST(EstimatorSpecParse, ElidesDefaultsAndEmptyParens) {
  // robust() and explicit default values are the bare family — one lane,
  // one label, wherever they appear.
  EXPECT_EQ(registry().parse("robust()").label(), "robust");
  EXPECT_EQ(registry().parse("robust(use_local_rate=1)").label(), "robust");
  EXPECT_EQ(registry().parse("robust(use_local_rate=true)").label(),
            "robust");
  EXPECT_EQ(registry().parse("robust(poll_period=0)").label(), "robust");
  EXPECT_EQ(registry().parse("robust(poll_period=-0)").label(), "robust")
      << "-0 normalizes to the +0 sentinel, not a distinct '-0' lane";
  EXPECT_EQ(registry().parse("offline(split=none)").label(), "offline");
  EXPECT_EQ(registry().parse("robust()"), registry().parse("robust"));
}

TEST(EstimatorSpecParse, ToleratesWhitespaceEverywhere) {
  EXPECT_EQ(registry().parse("  robust  ").label(), "robust");
  EXPECT_EQ(
      registry().parse(" robust ( use_local_rate = 0 , poll_period = 64 ) ")
          .label(),
      "robust(use_local_rate=0,poll_period=64)");
}

TEST(EstimatorSpecParse, CanonicalizesValuesAndKeyOrder) {
  // Boolean spellings collapse to 0/1; numbers to %g; keys re-order to the
  // family's declared order no matter how the user wrote them.
  EXPECT_EQ(registry().parse("robust(use_local_rate=false)").label(),
            "robust(use_local_rate=0)");
  EXPECT_EQ(registry().parse("swntp(step_threshold=0.50)").label(),
            "swntp(step_threshold=0.5)");
  EXPECT_EQ(
      registry().parse("robust(poll_period=64,use_local_rate=0)").label(),
      "robust(use_local_rate=0,poll_period=64)");
}

TEST(EstimatorSpecParse, ListSplitsOnTopLevelCommasOnly) {
  const auto specs = registry().parse_list(
      "robust, robust(use_local_rate=0,enable_aging=0) ,offline(split=shifts)");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].label(), "robust");
  EXPECT_EQ(specs[1].label(), "robust(use_local_rate=0,enable_aging=0)");
  EXPECT_EQ(specs[2].label(), "offline(split=shifts)");
}

// -- Precise parse errors --------------------------------------------------

TEST(EstimatorSpecParse, RejectsMalformedShapesWithPreciseMessages) {
  EXPECT_NE(error_of("robust(").find("missing ')'"), std::string::npos);
  EXPECT_NE(error_of("robust(use_local_rate=0").find("missing ')'"),
            std::string::npos);
  EXPECT_NE(error_of("robust)").find("unmatched ')'"), std::string::npos);
  EXPECT_NE(error_of("robust((use_local_rate=0))").find("parentheses"),
            std::string::npos);
  EXPECT_NE(error_of("frobust").find("unknown estimator family 'frobust'"),
            std::string::npos);
  EXPECT_NE(error_of("frobust").find("robust"), std::string::npos)
      << "the error must name the known families";
  EXPECT_NE(error_of("robust(bogus_key=1)").find("unknown key 'bogus_key'"),
            std::string::npos);
  EXPECT_NE(error_of("robust(bogus_key=1)").find("use_local_rate"),
            std::string::npos)
      << "the error must list the tunable keys";
  EXPECT_NE(error_of("robust(use_local_rate=0,use_local_rate=1)")
                .find("duplicate key 'use_local_rate'"),
            std::string::npos);
  EXPECT_NE(error_of("robust(use_local_rate=)")
                .find("empty value for key 'use_local_rate'"),
            std::string::npos);
  EXPECT_NE(error_of("robust(use_local_rate)").find("key=value"),
            std::string::npos);
  EXPECT_NE(error_of("robust(=1)").find("key=value"), std::string::npos);
  EXPECT_NE(error_of("robust(use_local_rate=maybe)").find("invalid boolean"),
            std::string::npos);
  EXPECT_NE(error_of("robust(poll_period=fast)").find("invalid number"),
            std::string::npos);
  EXPECT_NE(error_of("robust(poll_period=-16)").find("must be >= 0"),
            std::string::npos);
  // Boundary values that would only explode downstream must die at parse
  // time (exit 2 in the CLI), not as runtime FAILED cells. A tiny poll
  // period overflows the window packet counts.
  EXPECT_NE(error_of("robust(poll_period=1e-300)").find("poll_period"),
            std::string::npos);
  EXPECT_NE(error_of("robust(poll_period=1e-300)").find("too small"),
            std::string::npos);
  EXPECT_EQ(registry().parse("robust(poll_period=1e300)").label(),
            "robust(poll_period=1e+300)");
  EXPECT_NE(error_of("swntp(step_threshold=0)").find("must be > 0"),
            std::string::npos);
  EXPECT_NE(error_of("swntp(stepout=0)").find("must be > 0"),
            std::string::npos);
  EXPECT_NE(error_of("offline(split=sideways)").find("invalid value"),
            std::string::npos);
  EXPECT_NE(error_of("offline(split=sideways)").find("shifts"),
            std::string::npos)
      << "the error must list the valid choices";
  EXPECT_NE(error_of(""), "");
  EXPECT_NE(error_of("   "), "");
  EXPECT_NE(error_of("ROBUST").find("family"), std::string::npos)
      << "family names are lower-case by contract";
}

TEST(EstimatorSpecParse, RejectsMalformedLists) {
  EXPECT_THROW(registry().parse_list("robust,,naive"), EstimatorSpecError);
  EXPECT_THROW(registry().parse_list("robust,"), EstimatorSpecError);
  EXPECT_THROW(registry().parse_list(",robust"), EstimatorSpecError);
  EXPECT_THROW(registry().parse_list(""), EstimatorSpecError);
  EXPECT_THROW(registry().parse_list("robust)x,naive"), EstimatorSpecError);
  EXPECT_THROW(registry().parse_list("robust(use_local_rate=0,naive"),
               EstimatorSpecError);
}

TEST(EstimatorSpecParse, RefusesRepeatedLanesByCanonicalLabel) {
  // "robust" and "robust()" (or any default-valued override) are one lane;
  // the list parse refuses the repeat like the fleet axis does.
  for (const char* text :
       {"robust,robust()", "robust(use_local_rate=1),robust",
        "swntp(step_threshold=0.50),naive,swntp(step_threshold=0.5)"}) {
    try {
      (void)registry().parse_list(text);
      ADD_FAILURE() << "expected EstimatorSpecError for '" << text << "'";
    } catch (const EstimatorSpecError& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate estimator spec"),
                std::string::npos)
          << e.what();
    }
  }
}

// -- Registry metadata -----------------------------------------------------

TEST(EstimatorRegistrySpec, ListsBuiltinFamiliesInReportingOrder) {
  std::vector<std::string> names;
  std::vector<std::string> expected = {"robust", "swntp", "naive", "offline"};
  for (const auto* family : registry().families()) {
    names.push_back(family->name);
  }
  // Out-of-tree registrations (e.g. the lagged family registered by the
  // test below, depending on execution order) may append; the built-ins and
  // their order are the contract.
  ASSERT_GE(names.size(), expected.size());
  for (const auto& name : expected) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  std::vector<std::string> builtins;
  for (const auto& name : names) {
    if (std::find(expected.begin(), expected.end(), name) != expected.end())
      builtins.push_back(name);
  }
  EXPECT_EQ(builtins, expected);
}

TEST(EstimatorRegistrySpec, SurfacesTunableMetadata) {
  const auto& robust = registry().family("robust");
  EXPECT_FALSE(robust.replay);
  std::vector<std::string> keys;
  for (const auto& t : robust.tunables) keys.push_back(t.key);
  for (const char* key :
       {"use_local_rate", "enable_weighting", "enable_aging",
        "enable_offset_sanity", "enable_rate_sanity", "enable_level_shift",
        "poll_period"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
  }
  for (const auto& t : robust.tunables) {
    EXPECT_FALSE(t.default_value.empty()) << t.key;
    EXPECT_FALSE(t.description.empty()) << t.key;
  }
  EXPECT_TRUE(registry().family("offline").replay);
  EXPECT_THROW((void)registry().family("nope"), EstimatorSpecError);
  EXPECT_TRUE(registry().has_family("swntp"));
  EXPECT_FALSE(registry().has_family("nope"));
}

TEST(EstimatorRegistrySpec, RejectsBadRegistrations) {
  auto& mutable_registry = estimator_registry();
  EstimatorRegistry::Family dup;
  dup.name = "robust";  // already taken
  dup.make_online = [](const ResolvedSpec&, const core::Params&, double) {
    return std::unique_ptr<ClockEstimator>();
  };
  EXPECT_THROW(mutable_registry.register_family(dup), EstimatorSpecError);

  EstimatorRegistry::Family bad_name = dup;
  bad_name.name = "Bad Name!";
  EXPECT_THROW(mutable_registry.register_family(bad_name),
               EstimatorSpecError);

  EstimatorRegistry::Family no_factory;
  no_factory.name = "factoryless";
  EXPECT_THROW(mutable_registry.register_family(no_factory),
               EstimatorSpecError);

  EstimatorRegistry::Family bad_default = dup;
  bad_default.name = "bad-default";
  bad_default.tunables = {
      TunableSpec::boolean("flag", "yes", "non-canonical default")};
  EXPECT_THROW(mutable_registry.register_family(bad_default),
               EstimatorSpecError);
}

// -- Factories -------------------------------------------------------------

TEST(EstimatorSpecFactory, AppliesOnlyOverriddenKeys) {
  core::Params base = core::Params::for_poll_period(16.0);
  base.enable_aging = false;  // caller-ablated base configuration
  const double nominal = 1.8e-9;

  // Bare spec: the base params flow through untouched.
  const auto bare =
      registry().make_online(registry().parse("robust"), base, nominal);
  const auto& bare_clock =
      dynamic_cast<const TscNtpEstimator&>(*bare).clock();
  EXPECT_FALSE(bare_clock.params().enable_aging);
  EXPECT_TRUE(bare_clock.params().use_local_rate);
  EXPECT_EQ(bare_clock.params().poll_period, 16.0);

  // Overrides apply exactly the named keys.
  const auto ablated = registry().make_online(
      registry().parse("robust(use_local_rate=0,poll_period=64)"), base,
      nominal);
  const auto& ablated_clock =
      dynamic_cast<const TscNtpEstimator&>(*ablated).clock();
  EXPECT_FALSE(ablated_clock.params().use_local_rate);
  EXPECT_EQ(ablated_clock.params().poll_period, 64.0);
  EXPECT_FALSE(ablated_clock.params().enable_aging) << "base still inherited";
  EXPECT_TRUE(ablated_clock.params().enable_level_shift);

  // The swntp family maps its tunables onto the PLL config.
  const auto swntp = registry().make_online(
      registry().parse("swntp(step_threshold=0.5)"),
      core::Params::for_poll_period(16.0), nominal);
  EXPECT_EQ(swntp->name(), "swntp");
}

TEST(EstimatorSpecFactory, RoutesReplayFamiliesToTheReplayFactory) {
  const auto params = core::Params::for_poll_period(16.0);
  const auto offline =
      registry().make_replay(registry().parse("offline"), params, 2e-9);
  ASSERT_NE(offline, nullptr);
  EXPECT_EQ(offline->name(), "offline");
  EXPECT_THROW(
      registry().make_online(registry().parse("offline"), params, 2e-9),
      ContractViolation);
  EXPECT_THROW(
      registry().make_replay(registry().parse("robust"), params, 2e-9),
      ContractViolation);
}

// -- Self-registration -----------------------------------------------------

/// A deliberately trivial out-of-tree estimator: the naive adapter under a
/// new family name with one tunable, registered exactly the way a future
/// baseline would be.
void register_lagged_family() {
  static const EstimatorRegistrar registrar{[] {
    EstimatorRegistry::Family lagged;
    lagged.name = "lagged-naive";
    lagged.order = 90;
    lagged.description = "test-only: the naive estimator, re-registered";
    lagged.tunables = {
        TunableSpec::boolean("noop", "0", "test-only placeholder")};
    lagged.make_online = [](const ResolvedSpec&, const core::Params&,
                            double nominal_period) {
      return std::make_unique<NaiveEstimator>(nominal_period);
    };
    return lagged;
  }()};
  (void)registrar;
}

TEST(EstimatorRegistrySpec, OutOfTreeFamilyIsOneRegistrationAway) {
  register_lagged_family();
  ASSERT_TRUE(registry().has_family("lagged-naive"));
  const auto spec = registry().parse("lagged-naive(noop=1)");
  EXPECT_EQ(spec.label(), "lagged-naive(noop=1)");
  const auto estimator = registry().make_online(
      spec, core::Params::for_poll_period(16.0), 1.8e-9);
  ASSERT_NE(estimator, nullptr);
  EXPECT_EQ(estimator->name(), "naive");
}

}  // namespace
}  // namespace tscclock::harness
