// Deterministic random number generation for the simulation substrate.
//
// Every stochastic component of the testbed draws from its own Rng instance
// seeded from a scenario master seed, so traces are reproducible run-to-run
// and component-to-component (adding noise draws to the path model does not
// perturb the server model's stream).
//
// The simulated stream is defined here, by the repo's own arithmetic, not by
// a standard library: the engine is the standard's mt19937_64 (same seeding,
// refill and tempering) and each draw spells out the operations libstdc++'s
// distributions perform, so a toolchain or standard-library change cannot
// move a simulated number. The twist term and the word → double conversion
// are computed without data-dependent branches.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/contracts.hpp"

namespace tscclock {

/// The 64-bit Mersenne Twister exactly as [rand.predef] specifies
/// mt19937_64: seeded with 5489 (the standard's default seed), its 10000th
/// output is 9981545732273789042.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed);

  result_type operator()() {
    if (index_ >= kStateSize) refill();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kStateSize = 312;

  /// Regenerate all kStateSize state words (the standard's twist).
  void refill();

  std::array<result_type, kStateSize> state_{};
  std::size_t index_ = kStateSize;
};

/// A 64-bit word as a double in [0, 1): round(word) / 2^64, clamped below
/// 1.0 — what libstdc++'s generate_canonical<double, 64> returns for a
/// 64-bit engine. Each half converts exactly through a signed conversion
/// and the sum rounds once, so no branch on the word's top bit is needed.
inline double canonical_double(std::uint64_t word) {
  const double u =
      (static_cast<double>(static_cast<std::int64_t>(word >> 32)) * 0x1p32 +
       static_cast<double>(static_cast<std::int64_t>(word & 0xffffffffu))) *
      0x1p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

/// Seeded pseudo-random source with the distribution draws the testbed needs.
/// The per-draw methods are inline: the simulation substrate makes ~35 draws
/// per generated exchange. Every draw goes through canonical(), and none
/// keeps state between calls (the polar method's second variate is
/// dropped), so the word count a draw consumes depends only on its
/// arguments and the words it reads.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child generator; the label decorrelates children
  /// created from the same parent.
  [[nodiscard]] Rng fork(std::uint64_t label);

  /// Uniform in [0, 1).
  double uniform() { return canonical(); }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    TSC_EXPECTS(lo <= hi);
    return canonical() * (hi - lo) + lo;
  }

  /// Exponential with the given mean (> 0), by inversion.
  double exponential(double mean) {
    TSC_EXPECTS(mean > 0.0);
    return -std::log(1.0 - canonical()) / (1.0 / mean);
  }

  /// Pareto (Lomax form): density ~ (1 + x/scale)^-(shape+1), x >= 0.
  /// Heavy-tailed queueing excursions; mean = scale/(shape-1) for shape > 1.
  double pareto(double shape, double scale) {
    TSC_EXPECTS(shape > 0.0);
    TSC_EXPECTS(scale > 0.0);
    constexpr double kMin = std::numeric_limits<double>::min();
    const double u = canonical() * (1.0 - kMin) + kMin;  // in [kMin, 1)
    return scale * (std::pow(u, -1.0 / shape) - 1.0);
  }

  /// Zero-mean Gaussian with standard deviation `stddev` (Marsaglia's polar
  /// method; stddev 0 draws nothing).
  double normal(double stddev) {
    TSC_EXPECTS(stddev >= 0.0);
    if (stddev == 0.0) return 0.0;
    double y = 0;
    double r2 = 0;
    do {
      const double x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult * stddev + 0.0;  // + 0.0 turns a -0.0 into +0.0
  }

  /// True with probability p (p of 0 or 1 draws nothing).
  bool bernoulli(double p) {
    TSC_EXPECTS(p >= 0.0 && p <= 1.0);
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  /// The engine, for raw 64-bit words.
  Mt19937_64& engine() { return engine_; }

 private:
  double canonical() { return canonical_double(engine_()); }

  Mt19937_64 engine_;
};

}  // namespace tscclock
