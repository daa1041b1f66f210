// Tests for the statistics substrate: running/windowed minima, percentiles
// (the selection kernel against a sorted reference), histograms, moments and
// the P² sketches.
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace tscclock {
namespace {

TEST(RunningMin, TracksMinimum) {
  RunningMin<int> m;
  EXPECT_FALSE(m.valid());
  m.update(5);
  EXPECT_TRUE(m.valid());
  EXPECT_EQ(m.value(), 5);
  m.update(7);
  EXPECT_EQ(m.value(), 5);
  m.update(3);
  EXPECT_EQ(m.value(), 3);
}

TEST(RunningMin, ResetToOverrides) {
  RunningMin<int> m;
  m.update(3);
  m.reset_to(10);  // level-shift reaction can *raise* the minimum
  EXPECT_EQ(m.value(), 10);
  m.update(8);
  EXPECT_EQ(m.value(), 8);
}

TEST(WindowedMin, MatchesBruteForce) {
  const std::size_t window = 7;
  WindowedMin<int> wm(window);
  Rng rng(3);
  std::vector<int> values;
  for (int i = 0; i < 500; ++i) {
    const int v = static_cast<int>(rng.uniform(0, 1000));
    values.push_back(v);
    wm.push(v);
    const std::size_t begin = values.size() > window ? values.size() - window : 0;
    int expected = values[begin];
    for (std::size_t k = begin; k < values.size(); ++k)
      expected = std::min(expected, values[k]);
    ASSERT_EQ(wm.min(), expected) << "at step " << i;
  }
}

TEST(WindowedMin, FullOnlyAfterCapacity) {
  WindowedMin<int> wm(3);
  wm.push(1);
  wm.push(2);
  EXPECT_FALSE(wm.full());
  wm.push(3);
  EXPECT_TRUE(wm.full());
}

TEST(WindowedMin, OldMinimumExpires) {
  WindowedMin<int> wm(3);
  wm.push(1);
  wm.push(10);
  wm.push(20);
  EXPECT_EQ(wm.min(), 1);
  wm.push(30);  // the 1 leaves the window
  EXPECT_EQ(wm.min(), 10);
}

TEST(WindowedMin, ClearRestarts) {
  WindowedMin<int> wm(3);
  wm.push(1);
  wm.clear();
  EXPECT_FALSE(wm.valid());
  wm.push(9);
  EXPECT_EQ(wm.min(), 9);
}

TEST(Percentile, KnownValues) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.75), 7.5);
}

TEST(Percentile, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 42.0);
}

TEST(Percentile, RejectsEmptyAndBadQuantile) {
  std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 0.5), ContractViolation);
  std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, 1.5), ContractViolation);
}

TEST(Percentile, InputOrderIrrelevant) {
  std::vector<double> a{5, 1, 4, 2, 3};
  std::vector<double> b{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(a, 0.5), percentile(b, 0.5));
}

TEST(PercentileSummary, IqrIsP75MinusP25) {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  const auto s = percentile_summary(v);
  EXPECT_DOUBLE_EQ(s.p50, 51.0);
  EXPECT_DOUBLE_EQ(s.iqr(), s.p75 - s.p25);
  EXPECT_DOUBLE_EQ(s.p25, 26.0);
  EXPECT_DOUBLE_EQ(s.p75, 76.0);
}

TEST(Summarize, BasicDescriptives) {
  std::vector<double> v{1, 2, 3, 4, 100};
  const auto s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.percentiles.p50, 3.0);
}

// -- Percentiles by selection, against the sorted definition ---------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The interpolation percentile() is defined by, read off a fully sorted
/// copy: the reference the selection kernel must match bit for bit.
double sorted_at(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Compares percentile_summary(), summarize() and percentile(q) at q = 0,
/// 0.5, 1 and `random_qs` draws with the sorted reference, bit for bit.
void expect_matches_sorted(const std::vector<double>& values, Rng& rng,
                           int random_qs, const std::string& what) {
  SCOPED_TRACE(what + ", n = " + std::to_string(values.size()));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::array<double, 5> qs{0.01, 0.25, 0.50, 0.75, 0.99};

  const PercentileSummary p = percentile_summary(values);
  const std::array<double, 5> got{p.p01, p.p25, p.p50, p.p75, p.p99};
  const SeriesSummary s = summarize(values);
  const std::array<double, 5> got_s{s.percentiles.p01, s.percentiles.p25,
                                    s.percentiles.p50, s.percentiles.p75,
                                    s.percentiles.p99};
  for (std::size_t k = 0; k < qs.size(); ++k) {
    EXPECT_EQ(bits(got[k]), bits(sorted_at(sorted, qs[k]))) << "q " << qs[k];
    EXPECT_EQ(bits(got_s[k]), bits(sorted_at(sorted, qs[k])))
        << "q " << qs[k];
  }
  EXPECT_EQ(s.count, values.size());
  EXPECT_EQ(bits(s.min), bits(sorted.front()));
  EXPECT_EQ(bits(s.max), bits(sorted.back()));

  // percentile() returns a lone value as is; otherwise the same definition.
  const auto reference = [&](double q) {
    return sorted.size() == 1 ? sorted.front() : sorted_at(sorted, q);
  };
  std::vector<double> single_qs{0.0, 0.5, 1.0};
  for (int i = 0; i < random_qs; ++i) single_qs.push_back(rng.uniform());
  for (double q : single_qs) {
    EXPECT_EQ(bits(percentile(values, q)), bits(reference(q))) << "q " << q;
  }
}

TEST(PercentileSelection, MatchesSortedDefinitionForEveryShapeUpTo400) {
  Rng rng(2024);
  for (std::size_t n = 1; n <= 400; ++n) {
    std::vector<double> random(n), ties(n), ascending(n), descending(n),
        equal(n, 7.25), zeros(n);
    for (std::size_t i = 0; i < n; ++i) {
      random[i] = rng.normal(1e-5) + 3e-6;
      ties[i] = static_cast<double>(static_cast<int>(rng.uniform() * 4.0)) -
                1.5;
      ascending[i] = static_cast<double>(i) * 0.5 - 20.0;
      descending[i] = static_cast<double>(n - i) * 0.25;
      // +0.0 ties beside a few signed values; no −0.0, whose order against
      // +0.0 no sort fixes.
      const double u = rng.uniform();
      zeros[i] = u < 0.7 ? 0.0 : (u < 0.85 ? 1e-6 : -1e-6);
    }
    expect_matches_sorted(random, rng, 2, "random");
    expect_matches_sorted(ties, rng, 2, "heavy ties");
    expect_matches_sorted(ascending, rng, 2, "ascending");
    expect_matches_sorted(descending, rng, 2, "descending");
    expect_matches_sorted(equal, rng, 2, "all equal");
    expect_matches_sorted(zeros, rng, 2, "+0.0 ties");
  }
}

TEST(PercentileSelection, MatchesSortedDefinitionOnAMonthLongSeries) {
  // A month of 16 s polls: the length of the trace_replay error series.
  Rng rng(161925);
  std::vector<double> series(161925);
  for (double& x : series) x = rng.normal(2e-5) + rng.pareto(2.5, 1e-6);
  expect_matches_sorted(series, rng, 16, "month");
}

TEST(PercentileSelection, SignedZeroTiesYieldAZero) {
  // −0.0 == +0.0, so a sort may place either first; the result is a zero
  // of either sign, as it always was.
  std::vector<double> v(64);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 3 == 0 ? -0.0 : 0.0;
  const PercentileSummary p = percentile_summary(v);
  for (double x : {p.p01, p.p25, p.p50, p.p75, p.p99}) EXPECT_EQ(x, 0.0);
  EXPECT_EQ(percentile(v, 0.3), 0.0);
}

TEST(PercentileSelection, NanLacedSeriesStaysInBounds) {
  // NaN breaks the ordering the selection relies on, so the percentiles
  // are unspecified; the calls must still stay inside the copy (the
  // sanitizer builds check it) and count every value.
  Rng rng(77);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n : {1u, 2u, 5u, 17u, 100u, 1000u, 20000u}) {
    for (double density : {0.01, 0.3, 1.0}) {
      std::vector<double> v(n);
      for (double& x : v) x = rng.uniform() < density ? nan : rng.normal(1.0);
      const SeriesSummary s = summarize(v);
      EXPECT_EQ(s.count, n);
      (void)percentile_summary(v);
      for (double q : {0.0, 0.37, 1.0}) (void)percentile(v, q);
    }
  }
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.5);    // bin 9
  h.add(-5.0);   // clamped to bin 0
  h.add(50.0);   // clamped to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.density(0), 0.5);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(9), 9.5);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), ContractViolation);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ContractViolation);
}

TEST(Histogram, NanHasNoBinAndIsCountedSeparately) {
  // Regression (UBSAN-exercised in the asan-ubsan CI leg): std::floor(NaN)
  // is NaN and casting NaN to an integer is undefined behaviour — a NaN
  // sample used to be credited to an arbitrary bin. It must instead be
  // rejected from the bins and surfaced via nan_count().
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(-std::numeric_limits<double>::quiet_NaN());
  h.add(5.0);
  EXPECT_EQ(h.nan_count(), 2u);
  EXPECT_EQ(h.total(), 1u) << "NaN must not inflate the binned mass";
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_DOUBLE_EQ(h.density(5), 1.0) << "densities are over binned samples";
}

TEST(Histogram, InfinitiesAndHugeValuesClampIntoTerminalBins) {
  // Casting a double beyond the integer target's range is UB just like the
  // NaN case; ±inf and huge finite values must clamp into the terminal
  // bins (mass conservation, as documented) without tripping UBSAN.
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(1e300);
  h.add(-1e300);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.nan_count(), 0u);
}

TEST(RunningMoments, MatchesClosedForm) {
  RunningMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.update(v);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningMoments, DegenerateCases) {
  RunningMoments m;
  EXPECT_EQ(m.variance(), 0.0);
  m.update(3.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean(), 3.0);
}

// -- P² quantile sketch ----------------------------------------------------

TEST(P2Quantile, ExactForFiveOrFewerSamples) {
  P2Quantile median(0.5);
  median.add(3.0);
  EXPECT_EQ(median.value(), 3.0);
  median.add(1.0);
  median.add(5.0);
  // Exact interpolated percentile of {1, 3, 5}.
  EXPECT_DOUBLE_EQ(median.value(), 3.0);
  median.add(2.0);
  median.add(4.0);
  EXPECT_DOUBLE_EQ(median.value(), 3.0);
}

TEST(P2Quantile, ApproximatesUniformStreamQuantiles) {
  Rng rng(4242);
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  P2Quantile p01(0.01);
  for (int k = 0; k < 100000; ++k) {
    const double x = rng.uniform();
    p50.add(x);
    p99.add(x);
    p01.add(x);
  }
  EXPECT_NEAR(p50.value(), 0.50, 0.01);
  EXPECT_NEAR(p99.value(), 0.99, 0.005);
  EXPECT_NEAR(p01.value(), 0.01, 0.005);
}

TEST(P2Quantile, ApproximatesHeavyTailedStreamMedian) {
  // Pareto-style heavy tail: the regime the sweep's error series live in.
  Rng rng(777);
  P2Quantile p50(0.5);
  std::vector<double> all;
  for (int k = 0; k < 20000; ++k) {
    const double x = rng.pareto(2.5, 1e-3);
    p50.add(x);
    all.push_back(x);
  }
  const double exact = percentile(all, 0.5);
  EXPECT_NEAR(p50.value(), exact, 0.05 * exact + 1e-6);
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), ContractViolation);
  EXPECT_THROW(P2Quantile(1.0), ContractViolation);
  P2Quantile q(0.5);
  EXPECT_THROW((void)q.value(), ContractViolation);
}

TEST(StreamingSeriesSummary, ExactMomentsApproximatePercentiles) {
  Rng rng(90210);
  StreamingSeriesSummary streaming;
  std::vector<double> all;
  for (int k = 0; k < 50000; ++k) {
    const double x = rng.normal(2e-5) + 1e-5;
    streaming.add(x);
    all.push_back(x);
  }
  const auto exact = summarize(all);
  const auto approx = streaming.summary();
  // Same Welford recurrence in the same order → bit-identical moments.
  EXPECT_EQ(approx.count, exact.count);
  EXPECT_EQ(approx.mean, exact.mean);
  EXPECT_EQ(approx.stddev, exact.stddev);
  EXPECT_EQ(approx.min, exact.min);
  EXPECT_EQ(approx.max, exact.max);
  // P² percentiles within a small fraction of the standard deviation.
  EXPECT_NEAR(approx.percentiles.p50, exact.percentiles.p50,
              0.05 * exact.stddev);
  EXPECT_NEAR(approx.percentiles.p25, exact.percentiles.p25,
              0.05 * exact.stddev);
  EXPECT_NEAR(approx.percentiles.p75, exact.percentiles.p75,
              0.05 * exact.stddev);
  EXPECT_NEAR(approx.percentiles.p01, exact.percentiles.p01,
              0.15 * exact.stddev);
  EXPECT_NEAR(approx.percentiles.p99, exact.percentiles.p99,
              0.15 * exact.stddev);
}

/// Five independent P2Quantiles at the summary's quantiles: the reference
/// the marker-major StreamingSeriesSummary must match bit for bit.
struct FiveP2 {
  std::array<P2Quantile, 5> q{P2Quantile(0.01), P2Quantile(0.25),
                              P2Quantile(0.50), P2Quantile(0.75),
                              P2Quantile(0.99)};
  void add(double x) {
    for (P2Quantile& p : q) p.add(x);
  }
};

void expect_same_estimates(const StreamingSeriesSummary& streaming,
                           const FiveP2& reference) {
  const PercentileSummary p = streaming.summary().percentiles;
  const std::array<double, 5> got{p.p01, p.p25, p.p50, p.p75, p.p99};
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(bits(got[k]), bits(reference.q[k].value())) << "quantile " << k;
  }
}

/// Feeds `stream` to both, comparing after every sample.
void expect_matches_p2(const std::vector<double>& stream,
                       const std::string& what) {
  SCOPED_TRACE(what);
  StreamingSeriesSummary streaming;
  FiveP2 reference;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    streaming.add(stream[i]);
    reference.add(stream[i]);
    ASSERT_EQ(streaming.count(), i + 1);
    expect_same_estimates(streaming, reference);
    if (::testing::Test::HasFailure()) FAIL() << "after sample " << i;
  }
}

TEST(StreamingSeriesSummary, MatchesFiveP2QuantilesAfterEverySample) {
  Rng rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> stream(10);
    for (double& x : stream) {
      x = trial % 2 == 0 ? rng.normal(1.0)
                         : static_cast<double>(static_cast<int>(
                               rng.uniform() * 3.0));
    }
    expect_matches_p2(stream, "trial " + std::to_string(trial));
  }
  const StreamingSeriesSummary empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(bits(empty.summary().percentiles.p50), bits(0.0));
}

TEST(StreamingSeriesSummary, MatchesFiveP2QuantilesOnAnAr1Stream) {
  Rng rng(8128);
  StreamingSeriesSummary streaming;
  FiveP2 reference;
  double x = 0.0;
  for (int i = 1; i <= 100000; ++i) {
    x = 0.95 * x + rng.normal(1e-5);
    streaming.add(x);
    reference.add(x);
    if (i % 997 == 0 || i == 100000) {
      SCOPED_TRACE("after " + std::to_string(i) + " samples");
      expect_same_estimates(streaming, reference);
    }
  }
}

TEST(StreamingSeriesSummary, MatchesFiveP2QuantilesOnEdgeStreams) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(99);
  const std::size_t n = 2000;
  std::vector<double> constant(n, -3.5), ascending(n), descending(n),
      zeros(n), infinities(n), nan_late(n), nan_early(n);
  for (std::size_t i = 0; i < n; ++i) {
    ascending[i] = static_cast<double>(i);
    descending[i] = -static_cast<double>(i) * 1e-3;
    // Signed-zero ties: a −0.0 ties the top marker's +0.0 and takes its
    // place, while std::max keeps the old zero.
    zeros[i] = rng.uniform() < 0.5 ? -0.0 : 0.0;
    const double u = rng.uniform();
    infinities[i] = u < 0.05 ? inf : u < 0.1 ? -inf : rng.normal(1.0);
    nan_late[i] = i >= 5 && rng.uniform() < 0.02 ? nan : rng.normal(1.0);
    nan_early[i] = i == 2 || rng.uniform() < 0.01 ? nan : rng.normal(1.0);
  }
  expect_matches_p2(constant, "constant");
  expect_matches_p2(ascending, "ascending");
  expect_matches_p2(descending, "descending");
  expect_matches_p2(zeros, "+-0.0");
  expect_matches_p2(infinities, "+-inf");
  expect_matches_p2(nan_late, "NaN after the first five");
  expect_matches_p2(nan_early, "NaN among the first five");
}

TEST(StreamingSeriesSummary, EmptySummaryIsZeroInitialized) {
  const StreamingSeriesSummary streaming;
  const auto s = streaming.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.percentiles.p50, 0.0);
}

}  // namespace
}  // namespace tscclock
