// Tests for the Allan deviation analysis, including the two canonical noise
// signatures the paper relies on (§3.1): white phase noise → ADEV ∝ 1/τ,
// and a pure constant skew → ADEV = 0.
#include "common/allan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace tscclock {
namespace {

TEST(Allan, ZeroForPerfectLinearPhase) {
  // θ(t) = θ0 + γt: second differences vanish, so ADEV = 0 at every τ.
  std::vector<double> phase;
  for (int k = 0; k < 1000; ++k) phase.push_back(1e-3 + 5e-6 * k);
  const std::size_t ms[] = {1, 2, 5, 10, 50};
  const auto pts = allan_deviation(phase, 1.0, ms);
  ASSERT_EQ(pts.size(), 5u);
  for (const auto& p : pts) EXPECT_NEAR(p.deviation, 0.0, 1e-15);
}

TEST(Allan, WhitePhaseNoiseFallsAsOneOverTau) {
  // x_k iid N(0, σ²) ⇒ AVAR(τ) = 3σ²/τ² ⇒ ADEV = √3·σ/τ.
  Rng rng(101);
  const double sigma = 2e-6;
  std::vector<double> phase;
  for (int k = 0; k < 200000; ++k) phase.push_back(rng.normal(sigma));
  const std::size_t ms[] = {1, 10, 100};
  const auto pts = allan_deviation(phase, 1.0, ms);
  ASSERT_EQ(pts.size(), 3u);
  for (const auto& p : pts) {
    const double expected = std::sqrt(3.0) * sigma / p.tau;
    EXPECT_NEAR(p.deviation / expected, 1.0, 0.1) << "tau=" << p.tau;
  }
}

TEST(Allan, FrequencyStepShowsAtLargeTau) {
  // A rate that flips between ±γ on a long cycle leaves ~γ at τ near the
  // half cycle.
  std::vector<double> phase;
  double x = 0;
  const double gamma = 1e-7;
  for (int k = 0; k < 40000; ++k) {
    const double rate = (k / 1000) % 2 == 0 ? gamma : -gamma;
    x += rate;  // tau0 = 1 s steps
    phase.push_back(x);
  }
  const std::size_t ms[] = {1000};
  const auto pts = allan_deviation(phase, 1.0, ms);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_NEAR(pts[0].deviation, gamma, 0.5 * gamma);
}

TEST(Allan, SkipsOversizedFactors) {
  std::vector<double> phase(10, 0.0);
  const std::size_t ms[] = {1, 2, 3, 4, 100};
  const auto pts = allan_deviation(phase, 1.0, ms);
  EXPECT_EQ(pts.size(), 4u);  // m=4 needs 2m+2=10 ok; m=100 skipped
}

TEST(Allan, TermsCountIsNMinus2m) {
  std::vector<double> phase(100, 0.0);
  const std::size_t ms[] = {10};
  const auto pts = allan_deviation(phase, 1.0, ms);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].terms, 80u);
}

TEST(Allan, RejectsNonPositiveTau0) {
  std::vector<double> phase(10, 0.0);
  const std::size_t ms[] = {1};
  EXPECT_THROW(allan_deviation(phase, 0.0, ms), ContractViolation);
}

TEST(LogSpacedFactors, StrictlyIncreasingAndBounded) {
  const auto f = log_spaced_factors(10000, 4);
  ASSERT_FALSE(f.empty());
  EXPECT_EQ(f.front(), 1u);
  for (std::size_t k = 1; k < f.size(); ++k) EXPECT_GT(f[k], f[k - 1]);
  EXPECT_LE(f.back(), 10000u / 3);
}

TEST(LogSpacedFactors, EmptyForTinySeries) {
  EXPECT_TRUE(log_spaced_factors(3, 4).empty());
}

TEST(ResampleLinear, ExactOnLinearSeries) {
  std::vector<double> times{0.0, 10.0, 20.0};
  std::vector<double> values{0.0, 100.0, 200.0};
  const auto r = resample_linear(times, values, 2.5);
  ASSERT_EQ(r.size(), 9u);  // 0, 2.5, ..., 20
  for (std::size_t k = 0; k < r.size(); ++k)
    EXPECT_NEAR(r[k], 25.0 * static_cast<double>(k), 1e-9);
}

TEST(ResampleLinear, HandlesIrregularSpacing) {
  std::vector<double> times{0.0, 1.0, 5.0};
  std::vector<double> values{0.0, 1.0, 9.0};
  const auto r = resample_linear(times, values, 1.0);
  ASSERT_EQ(r.size(), 6u);
  EXPECT_NEAR(r[0], 0.0, 1e-12);
  EXPECT_NEAR(r[1], 1.0, 1e-12);
  EXPECT_NEAR(r[3], 5.0, 1e-12);  // interpolated on the 1→5 segment
}

TEST(ResampleLinear, RejectsBadInput) {
  std::vector<double> times{0.0};
  std::vector<double> values{0.0};
  EXPECT_THROW(resample_linear(times, values, 1.0), ContractViolation);
  std::vector<double> t2{0.0, 1.0};
  std::vector<double> v1{0.0};
  EXPECT_THROW(resample_linear(t2, v1, 1.0), ContractViolation);
}

// -- StreamingGapAdev ------------------------------------------------------

/// The buffered reference: split at gaps > 4·tau0 and before every sample
/// not strictly after its predecessor, longest stretch first-wins, resample,
/// overlapping ADEV — the exact pipeline ReducerSink uses.
std::vector<AllanPoint> buffered_gap_adev(const std::vector<double>& times,
                                          const std::vector<double>& values,
                                          double tau0,
                                          std::span<const std::size_t> ms) {
  if (times.size() < 3) return {};
  std::size_t best_begin = 0;
  std::size_t best_len = 0;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= times.size(); ++i) {
    if (i == times.size() || !(times[i] > times[i - 1]) ||
        times[i] - times[i - 1] > 4 * tau0) {
      if (i - begin > best_len) {
        best_len = i - begin;
        best_begin = begin;
      }
      begin = i;
    }
  }
  if (best_len < 3) return {};
  const std::span<const double> seg_times(times.data() + best_begin,
                                          best_len);
  const std::span<const double> seg_values(values.data() + best_begin,
                                           best_len);
  const auto regular = resample_linear(seg_times, seg_values, tau0);
  return allan_deviation(regular, tau0, ms);
}

/// Irregular sample times with jitter and two injected gaps (one splitting
/// the series into unequal stretches, so the longest-stretch selection has
/// real work to do).
void make_gappy_series(Rng& rng, std::size_t n, double tau0,
                       std::vector<double>& times,
                       std::vector<double>& values) {
  double t = 0.0;
  double walk = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    t += tau0 * rng.uniform(0.8, 1.2);
    if (k == n / 5 || k == (3 * n) / 4) t += 20 * tau0;  // gaps
    walk += rng.normal(1e-7);
    times.push_back(t);
    values.push_back(walk + rng.normal(5e-7));
  }
}

TEST(StreamingGapAdev, BitIdenticalToBufferedPipeline) {
  Rng rng(2024);
  std::vector<double> times;
  std::vector<double> values;
  const double tau0 = 16.0;
  make_gappy_series(rng, 4000, tau0, times, values);

  // The same series with a backwards server step and a repeated stamp inside
  // its longest stretch: each must end the stretch in both engines.
  std::vector<double> stepped = times;
  stepped[2000] = stepped[1999] - 3.0;
  stepped[2600] = stepped[2599];

  const std::size_t ms[] = {16, 256};
  for (const auto* series : {&times, &stepped}) {
    const auto reference = buffered_gap_adev(*series, values, tau0, ms);
    ASSERT_EQ(reference.size(), 2u);

    StreamingGapAdev streaming(tau0, {16, 256});
    for (std::size_t k = 0; k < series->size(); ++k)
      streaming.add((*series)[k], values[k]);
    const auto result = streaming.result();
    ASSERT_EQ(result.size(), reference.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i].tau, reference[i].tau);
      // Bit-level equality: the streaming resampler and accumulator
      // replicate the buffered arithmetic exactly.
      EXPECT_EQ(result[i].deviation, reference[i].deviation);
      EXPECT_EQ(result[i].terms, reference[i].terms);
    }
  }
}

TEST(StreamingGapAdev, MidStreamResultMatchesBufferedPrefix) {
  Rng rng(77);
  std::vector<double> times;
  std::vector<double> values;
  const double tau0 = 16.0;
  make_gappy_series(rng, 2000, tau0, times, values);

  StreamingGapAdev streaming(tau0, {16});
  const std::size_t cut = 1234;
  for (std::size_t k = 0; k < cut; ++k) streaming.add(times[k], values[k]);

  std::vector<double> prefix_times(times.begin(), times.begin() + cut);
  std::vector<double> prefix_values(values.begin(), values.begin() + cut);
  const std::size_t ms[] = {16};
  const auto reference = buffered_gap_adev(prefix_times, prefix_values, tau0,
                                           ms);
  const auto result = streaming.result();
  ASSERT_EQ(result.size(), reference.size());
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].deviation, reference[0].deviation);
  EXPECT_EQ(result[0].terms, reference[0].terms);

  // result() is a snapshot: continuing afterwards still matches the full
  // buffered reduction.
  for (std::size_t k = cut; k < times.size(); ++k)
    streaming.add(times[k], values[k]);
  const auto full_reference = buffered_gap_adev(times, values, tau0, ms);
  const auto full = streaming.result();
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].deviation, full_reference[0].deviation);
}

TEST(StreamingGapAdev, TooShortSeriesYieldsNoPoints) {
  StreamingGapAdev streaming(1.0, {4});
  streaming.add(0.0, 1e-6);
  streaming.add(1.0, 2e-6);
  EXPECT_TRUE(streaming.result().empty());
}

}  // namespace
}  // namespace tscclock
