// Tests for the deterministic random source and its distributions: the
// engine's known answer, the word -> double step, and (on libstdc++) every
// draw against std::mt19937_64 plus the standard distributions as oracles.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace tscclock {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkedChildrenAreDecorrelated) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.uniform() == c2.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsReproducible) {
  Rng p1(7);
  Rng p2(7);
  Rng a = p1.fork(3);
  Rng b = p2.fork(3);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  RunningMoments m;
  for (int i = 0; i < 50000; ++i) m.update(rng.exponential(2.5));
  EXPECT_NEAR(m.mean(), 2.5, 0.05);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.exponential(-1.0), ContractViolation);
}

TEST(Rng, ParetoMeanMatchesLomaxFormula) {
  // Lomax mean = scale / (shape - 1) for shape > 1.
  Rng rng(17);
  RunningMoments m;
  const double shape = 3.0;
  const double scale = 2.0;
  for (int i = 0; i < 200000; ++i) m.update(rng.pareto(shape, scale));
  EXPECT_NEAR(m.mean(), scale / (shape - 1.0), 0.05);
}

TEST(Rng, ParetoIsHeavyTailed) {
  // P(X > 10·mean) should exceed the exponential equivalent by far.
  Rng rng(19);
  const double mean = 1.0;
  int pareto_exceed = 0;
  int exp_exceed = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.pareto(2.0, mean) > 10 * mean) ++pareto_exceed;
    if (rng.exponential(mean) > 10 * mean) ++exp_exceed;
  }
  EXPECT_GT(pareto_exceed, 5 * (exp_exceed + 1));
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  RunningMoments m;
  for (int i = 0; i < 100000; ++i) m.update(rng.normal(0.5));
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.stddev(), 0.5, 0.01);
}

TEST(Rng, NormalZeroStddevIsZero) {
  Rng rng(23);
  EXPECT_EQ(rng.normal(0.0), 0.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(29);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
  EXPECT_THROW(rng.bernoulli(-0.1), ContractViolation);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.bernoulli(0.25)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Mt19937_64, TenThousandthOutputIsTheStandardsKnownAnswer) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  Mt19937_64 engine(5489);
  for (int i = 1; i < 10000; ++i) engine();
  EXPECT_EQ(engine(), 9981545732273789042ull);
}

TEST(CanonicalDouble, RoundsOnceAndClampsBelowOne) {
  constexpr double kBelowOne = 0x1.fffffffffffffp-1;
  EXPECT_EQ(canonical_double(0), 0.0);
  EXPECT_EQ(canonical_double(1), 0x1p-64);
  EXPECT_EQ(canonical_double(std::uint64_t{1} << 63), 0.5);
  // 2^64 - 1025 rounds down to 2^64 - 2048; 2^64 - 1024 is a tie that
  // rounds to even, 2^64, as does everything above it: those clamp.
  EXPECT_EQ(canonical_double(~std::uint64_t{0} - 1024), kBelowOne);
  EXPECT_EQ(canonical_double(~std::uint64_t{0} - 1023), kBelowOne);
  EXPECT_EQ(canonical_double(~std::uint64_t{0}), kBelowOne);
}

#ifdef __GLIBCXX__
// Other standard libraries compute the distributions differently, so the
// oracle comparisons below hold for libstdc++ only.

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// A generator that returns one chosen word, to feed
/// std::generate_canonical a given input.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(CanonicalDouble, MatchesGenerateCanonical) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  const std::uint64_t p53 = std::uint64_t{1} << 53;
  for (const std::uint64_t word :
       {std::uint64_t{0}, std::uint64_t{1}, p53 - 1, p53, p53 + 1,
        std::uint64_t{1} << 63, kTop - 1024, kTop - 1023, kTop}) {
    FixedWord fixed{word};
    EXPECT_EQ(bits(canonical_double(word)),
              bits(std::generate_canonical<double, 64>(fixed)))
        << "word " << word;
  }
}

/// Rng's draws computed the way Rng computed them when it wrapped the
/// standard library: std::mt19937_64 and a fresh libstdc++ distribution per
/// draw, with Rng's early returns (normal(0) and bernoulli(0|1) draw
/// nothing).
class StdReference {
 public:
  explicit StdReference(std::uint64_t seed) : engine_(seed) {}

  StdReference fork(std::uint64_t label) {
    std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL * (label + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return StdReference(z ^ (z >> 31));
  }
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  double pareto(double shape, double scale) {
    const double u = std::uniform_real_distribution<double>(
        std::numeric_limits<double>::min(), 1.0)(engine_);
    return scale * (std::pow(u, -1.0 / shape) - 1.0);
  }
  double normal(double stddev) {
    if (stddev == 0.0) return 0.0;
    return std::normal_distribution<double>(0.0, stddev)(engine_);
  }
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }
  std::uint64_t word() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

/// Drive `rng` and `reference` through the same `draws` calls, with the
/// method and its arguments picked by a selector seeded from `pick_seed`,
/// and return the index of the first draw whose bits differ (-1 if none).
long first_difference(Rng& rng, StdReference& reference,
                      std::uint32_t pick_seed, long draws) {
  static constexpr double kStddevs[] = {0.0, 1e-9, 0.5, 3.0};
  static constexpr double kProbs[] = {0.0, 1.0, 1e-3, 0.25, 0.75};
  static constexpr double kMeans[] = {1e-6, 2.5, 6 * 3600.0};
  static constexpr double kShapes[] = {1.5, 2.5, 3.0};
  static constexpr double kScales[] = {1e-4, 2.0};
  static constexpr double kBounds[][2] = {
      {-2.0, 3.0}, {0.2e-3, 2e-3}, {5.0, 5.0}, {0.0, 6.283185307179586}};
  std::mt19937 pick(pick_seed);
  for (long i = 0; i < draws; ++i) {
    const std::uint32_t choice = pick();
    const std::uint32_t arg = choice >> 3;
    double got = 0;
    double want = 0;
    switch (choice % 7) {
      case 0:
        got = rng.uniform();
        want = reference.uniform();
        break;
      case 1: {
        const auto& b = kBounds[arg % 4];
        got = rng.uniform(b[0], b[1]);
        want = reference.uniform(b[0], b[1]);
        break;
      }
      case 2:
        got = rng.exponential(kMeans[arg % 3]);
        want = reference.exponential(kMeans[arg % 3]);
        break;
      case 3:
        got = rng.pareto(kShapes[arg % 3], kScales[(arg / 3) % 2]);
        want = reference.pareto(kShapes[arg % 3], kScales[(arg / 3) % 2]);
        break;
      case 4:
        got = rng.normal(kStddevs[arg % 4]);
        want = reference.normal(kStddevs[arg % 4]);
        break;
      case 5:
        got = rng.bernoulli(kProbs[arg % 5]);
        want = reference.bernoulli(kProbs[arg % 5]);
        break;
      default:
        got = static_cast<double>(rng.engine()() >> 11);
        want = static_cast<double>(reference.word() >> 11);
        break;
    }
    if (bits(got) != bits(want)) return i;
  }
  return -1;
}

TEST(RngOracle, EveryDrawMatchesStdMt19937AndLibstdcxxDistributions) {
  constexpr long kDraws = 1'200'000;
  for (const std::uint64_t seed :
       {std::uint64_t{1}, std::uint64_t{42}, std::uint64_t{20041025},
        ~std::uint64_t{0}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    StdReference reference(seed);
    EXPECT_EQ(first_difference(rng, reference, 7, kDraws), -1);
    for (const std::uint64_t label : {std::uint64_t{1}, std::uint64_t{10}}) {
      SCOPED_TRACE("fork " + std::to_string(label));
      Rng child = rng.fork(label);
      StdReference reference_child = reference.fork(label);
      EXPECT_EQ(first_difference(child, reference_child, 11, kDraws), -1);
    }
  }
}
#endif  // __GLIBCXX__

}  // namespace
}  // namespace tscclock
