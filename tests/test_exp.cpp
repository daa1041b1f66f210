// Differential test of exp_batch against std::exp: every output must carry
// the bits std::exp returns for the same input. Seeded sweeps over the
// argument ranges the offset weights see, every special class of glibc's
// exp (tiny, large, the underflow and overflow edges, subnormal results,
// infinities, NaN), and short and unaligned spans, so that the kernel's
// tails and its per-lane fallback both run. Where the host runs the
// four-lane kernel, a single fusion written as a multiply and an add, or a
// special lane left on the vector path, fails this test.
#include "common/exp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace tscclock {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Number of i with bits(out[i]) != bits(std::exp(x[i])); the first few are
/// reported.
std::size_t mismatches(std::span<const double> x, std::span<const double> out) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = std::exp(x[i]);
    if (bits(out[i]) != bits(want)) {
      if (++bad <= 5) {
        ADD_FAILURE() << "exp(" << std::hexfloat << x[i] << ") = " << out[i]
                      << ", std::exp gives " << want;
      }
    }
  }
  return bad;
}

/// exp_batch and exp_batch_libm over `x`, out of place and in place.
void expect_libm_bits(std::span<const double> x) {
  std::vector<double> out(x.size());
  exp_batch(x, out);
  EXPECT_EQ(mismatches(x, out), 0u);
  exp_batch_libm(x, out);
  EXPECT_EQ(mismatches(x, out), 0u);
  std::vector<double> in_place(x.begin(), x.end());
  exp_batch(in_place, in_place);
  EXPECT_EQ(mismatches(x, in_place), 0u);
}

constexpr std::size_t kSeeded = 10'000'000;
constexpr std::size_t kChunk = 1 << 16;

/// kSeeded arguments from `draw`, checked a chunk at a time.
template <typename Draw>
void expect_seeded(std::uint64_t seed, Draw draw) {
  Rng rng(seed);
  std::vector<double> x(kChunk);
  std::vector<double> out(kChunk);
  std::size_t bad = 0;
  for (std::size_t done = 0; done < kSeeded; done += kChunk) {
    for (double& v : x) v = draw(rng);
    exp_batch(x, out);
    bad += mismatches(x, out);
  }
  EXPECT_EQ(bad, 0u);
}

TEST(ExpBatch, DispatchesTheKernelWhereGlibcUsesItsFmaExp) {
  // Otherwise the tests below would only check the std::exp loop on hosts
  // that can run the kernel.
#if defined(__x86_64__) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 28))
  EXPECT_EQ(exp_batch_vectorized(),
            __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"));
#else
  EXPECT_FALSE(exp_batch_vectorized());
#endif
}

TEST(ExpBatch, SeededArgumentsOverTheWholeFiniteRange) {
  expect_seeded(20041025, [](Rng& rng) { return rng.uniform(-760.0, 710.0); });
}

TEST(ExpBatch, SeededNegatedSquaresAsTheWeightsUseThem) {
  expect_seeded(20041026, [](Rng& rng) {
    const double z = rng.uniform(0.0, 40.0);
    return -z * z;
  });
}

TEST(ExpBatch, EverySpecialClassMatches) {
  std::vector<double> x = {
      0.0, -0.0, kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 1.0, -1.0};
  // Each edge with its neighbours on both sides, and both signs: glibc's
  // tiny-argument cut (2^-54), its large-argument cut (512), the subnormal
  // result edge (exp(x) < DBL_MIN below about −708.40), the underflow to
  // zero (about −745.13), the kernel's own +0 cut (−746), the overflow
  // (about 709.78) and 1024.
  const double edges[] = {0x1p-54, 512.0, 0x1.6232bdd7abcd2p+9,
                          0x1.74910d52d3051p+9, 0x1.74910d52d3052p+9,
                          746.0, 0x1.62e42fefa39efp+9, 1024.0};
  for (const double edge : edges) {
    for (const double e : {edge, -edge}) {
      double below = e;
      double above = e;
      for (int step = 0; step < 3; ++step) {
        below = std::nextafter(below, -kInf);
        above = std::nextafter(above, kInf);
        x.push_back(below);
        x.push_back(above);
      }
      x.push_back(e);
    }
  }
  // One special lane among common ones, at each position of a block.
  for (const double special : x) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      std::vector<double> block = {-0.5, -3.25, -17.0, -100.0};
      block[lane] = special;
      expect_libm_bits(block);
    }
  }
  // Subnormal results, a sweep through the underflow ramp and on through
  // the results the kernel zeroes itself.
  for (double v = -1100.0; v < -707.0; v += 0.037) x.push_back(v);
  // Every value at every lane position: rotate the list four times.
  for (std::size_t shift = 0; shift < 4; ++shift) {
    std::vector<double> rotated(x.begin() + static_cast<std::ptrdiff_t>(shift),
                                x.end());
    rotated.insert(rotated.end(), x.begin(),
                   x.begin() + static_cast<std::ptrdiff_t>(shift));
    expect_libm_bits(rotated);
  }
}

TEST(ExpBatch, ShortAndUnalignedSpans) {
  Rng rng(7);
  std::vector<double> pool(64);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    // Mostly the common path, with a special lane now and then.
    pool[i] = i % 11 == 5 ? -600.0 : rng.uniform(-30.0, 5.0);
  }
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t n = 0; n <= 9; ++n) {
      SCOPED_TRACE(testing::Message() << "offset " << offset << " n " << n);
      const std::span<const double> x(pool.data() + offset, n);
      expect_libm_bits(x);
      // Nothing past out[n) is written.
      std::vector<double> out(n + 5, -1.0);
      exp_batch(x, out);
      for (std::size_t i = n; i < out.size(); ++i) EXPECT_EQ(out[i], -1.0);
    }
  }
}

TEST(ExpBatch, TheLibmLoopMatchesOnEveryHost) {
  // The fallback exp_batch uses where the kernel is not dispatched.
  Rng rng(11);
  std::vector<double> x(4099);
  for (double& v : x) v = rng.uniform(-800.0, 800.0);
  std::vector<double> out(x.size());
  exp_batch_libm(x, out);
  EXPECT_EQ(mismatches(x, out), 0u);
}

TEST(ExpBatch, RefusesAShortOutput) {
  const std::vector<double> x(5, 0.0);
  std::vector<double> out(4);
  EXPECT_THROW(exp_batch(x, out), ContractViolation);
  EXPECT_THROW(exp_batch_libm(x, out), ContractViolation);
}

}  // namespace
}  // namespace tscclock
