// Tests for the offline (two-sided) offset smoother.
#include "core/offline.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"

#include "core/clock.hpp"
#include "core/naive.hpp"
#include "synthetic_link.hpp"

namespace tscclock::core {
namespace {

using testing::SyntheticLink;

Params test_params() {
  Params p;
  p.poll_period = 16.0;
  p.offset_window = 320.0;
  return p;
}

std::vector<RawExchange> clean_trace(SyntheticLink& link, int n) {
  std::vector<RawExchange> out;
  for (int i = 0; i < n; ++i) out.push_back(link.next());
  return out;
}

// True offset of the smoother's clock at a counter value: the smoother
// anchors C at the first packet's server midpoint, which absorbs +Δ/2
// (so tracking error = offsets[k] − theta_true(k) ≈ −Δ/2, the ambiguity).
Seconds theta_true(const OfflineResult& result, const SyntheticLink& link,
                   TscCount tf_counts) {
  const Seconds true_time =
      static_cast<double>(counter_delta(tf_counts,
                                        link.config().counter_base)) *
      link.config().period;
  return result.timescale.read(tf_counts) - true_time;
}

TEST(Offline, RejectsTinyTraces) {
  SyntheticLink link;
  std::vector<RawExchange> one{link.next()};
  EXPECT_THROW(smooth_offsets(one, test_params(), link.config().period),
               ContractViolation);
}

TEST(Offline, RecoversPeriodAndMinimum) {
  SyntheticLink link;
  auto trace = clean_trace(link, 400);
  const auto result =
      smooth_offsets(trace, test_params(), link.config().period * 1.00005);
  EXPECT_NEAR(result.period / link.config().period, 1.0, 1e-7);
  EXPECT_NEAR(delta_to_seconds(result.rhat_counts, result.period),
              link.min_rtt(), 20e-6);
}

TEST(Offline, CleanTraceSitsAtAsymmetryAmbiguity) {
  SyntheticLink link;
  auto trace = clean_trace(link, 400);
  const auto result =
      smooth_offsets(trace, test_params(), link.config().period);
  ASSERT_EQ(result.offsets.size(), trace.size());
  for (std::size_t k = 5; k + 5 < result.offsets.size(); ++k)
    EXPECT_NEAR(result.offsets[k] - theta_true(result, link, trace[k].tf),
                -link.asymmetry() / 2, 5e-6)
        << "packet " << k;
  EXPECT_EQ(result.poor_windows, 0u);
}

TEST(Offline, SmoothsThroughCongestionBurst) {
  // A burst of congested packets in the middle: the two-sided window sees
  // clean packets on BOTH sides, so even mid-burst estimates stay clean —
  // the §5.3 advantage over the causal estimator.
  SyntheticLink link;
  std::vector<RawExchange> trace;
  for (int i = 0; i < 100; ++i) trace.push_back(link.next());
  for (int i = 0; i < 12; ++i) trace.push_back(link.next(6e-3, 6e-3));
  for (int i = 0; i < 100; ++i) trace.push_back(link.next());
  const auto result =
      smooth_offsets(trace, test_params(), link.config().period);
  for (std::size_t k = 100; k < 112; ++k)
    EXPECT_NEAR(result.offsets[k] - theta_true(result, link, trace[k].tf),
                -link.asymmetry() / 2, 10e-6)
        << "mid-burst packet " << k;
}

TEST(Offline, FallsBackWhenWholeWindowCongested) {
  // Congestion longer than the whole window: the best packet in the
  // two-sided window is still congested → poor_windows counted, estimate
  // equals that best packet's naive value.
  SyntheticLink link;
  std::vector<RawExchange> trace;
  for (int i = 0; i < 60; ++i) trace.push_back(link.next());
  for (int i = 0; i < 60; ++i) trace.push_back(link.next(5e-3, 5e-3));
  for (int i = 0; i < 60; ++i) trace.push_back(link.next());
  const auto result =
      smooth_offsets(trace, test_params(), link.config().period);
  EXPECT_GT(result.poor_windows, 0u);
  // Even the fallback stays bounded: symmetric congestion cancels in the
  // naive midpoint, so errors remain µs-scale here.
  for (std::size_t k = 85; k < 95; ++k)
    EXPECT_NEAR(result.offsets[k] - theta_true(result, link, trace[k].tf),
                -link.asymmetry() / 2, 50e-6);
}

TEST(Offline, PoorWindowFallbackIsExactlyTheBestPacketsNaiveOffset) {
  // Direct contract test for the §5.3 fallback path: when every packet in a
  // two-sided window exceeds E**, the estimate must be the *naive offset of
  // the best (lowest total error) packet in that window* — bit-exactly, no
  // residual weighting — and exactly those windows must be counted in
  // poor_windows.
  //
  // Deterministic construction: symmetric congestion growing by 100 µs per
  // direction per packet, so point errors ramp ~200 µs per packet. Packets
  // 0 and 1 stay below E** = 360 µs; from packet 2 on everything is poor.
  // Early windows still contain a good packet (not poor); windows that have
  // slid past packet 1 contain only poor packets and must all fall back.
  SyntheticLink link;
  const Params params = test_params();
  std::vector<RawExchange> trace;
  const std::size_t n = 60;
  for (std::size_t i = 0; i < n; ++i) {
    const Seconds spike = static_cast<double>(i) * 100e-6;
    trace.push_back(link.next(spike, spike));
  }
  const auto result = smooth_offsets(trace, params, link.config().period);
  ASSERT_EQ(result.offsets.size(), n);

  // Replicate the documented window/total-error rule to predict, per
  // packet, the best window member and whether the window is poor.
  const Seconds half_window = params.offset_window / 2;
  std::size_t expected_poor = 0;
  for (std::size_t k = 0; k < n; ++k) {
    Seconds best_total = std::numeric_limits<double>::infinity();
    std::size_t best = k;
    for (std::size_t i = 0; i < n; ++i) {
      const Seconds signed_distance =
          result.timescale.between(trace[i].tf, trace[k].tf);
      if (i < k && signed_distance > half_window) continue;  // left of window
      const Seconds distance = std::fabs(signed_distance);
      if (i > k && distance > half_window) break;  // right of window
      const Seconds point_error = delta_to_seconds(
          trace[i].rtt_counts() - result.rhat_counts, result.period);
      const Seconds total = point_error + params.aging_rate * distance;
      if (total < best_total) {
        best_total = total;
        best = i;
      }
    }
    if (best_total > params.extreme_quality()) {
      ++expected_poor;
      // The fallback is the best packet's naive value, bit for bit.
      EXPECT_EQ(result.offsets[k],
                naive_offset(trace[best], result.timescale))
          << "poor-window packet " << k << " (best " << best << ")";
    }
  }
  EXPECT_EQ(result.poor_windows, expected_poor);
  // The construction must exercise both paths.
  EXPECT_GT(expected_poor, 10u);
  EXPECT_LT(expected_poor, n);
}

TEST(Offline, HandlesGapsWithoutStateDecay) {
  SyntheticLink link;
  std::vector<RawExchange> trace;
  for (int i = 0; i < 100; ++i) trace.push_back(link.next());
  link.advance(2 * duration::kDay);
  for (int i = 0; i < 100; ++i) trace.push_back(link.next());
  const auto result =
      smooth_offsets(trace, test_params(), link.config().period);
  // Packets right after the gap are estimated from the fresh side only.
  for (std::size_t k = 100; k < 110; ++k)
    EXPECT_NEAR(result.offsets[k] - theta_true(result, link, trace[k].tf),
                -link.asymmetry() / 2, 10e-6);
}

TEST(Offline, AgreesWithOnlineOnCleanData) {
  // On clean data the smoother and the on-line estimator must agree to
  // within the noise floor (both sit at −Δ/2 with µs spread).
  SyntheticLink link;
  auto trace = clean_trace(link, 300);
  const auto offline =
      smooth_offsets(trace, test_params(), link.config().period);
  TscNtpClock online(test_params(), link.config().period);
  std::vector<Seconds> online_offsets;
  for (const auto& ex : trace)
    online_offsets.push_back(online.process_exchange(ex).offset_estimate);
  for (std::size_t k = 50; k < trace.size(); ++k)
    EXPECT_NEAR(offline.offsets[k], online_offsets[k], 10e-6)
        << "packet " << k;
}

TEST(Offline, DegenerateBestPairTfSpanKeepsNominalPeriod) {
  // Regression for the whole-trace rate's quality gate. When the best
  // packets of the first and last quarter do not span a positive Tf
  // baseline, the ratio (ei + ej) / span is not a meaningful quality:
  // span == 0 makes it inf/NaN and span < 0 makes it *negative*, and a
  // non-positive or NaN ratio fails the `> rate_error_bound` comparison —
  // so a garbage candidate rate (orders of magnitude off) used to be
  // silently accepted and poisoned every downstream conversion. The guard
  // must fall back to the nominal period instead.
  const double nominal = 2.0e-9;
  const Params params = test_params();

  // span < 0: sends causally ordered (Ta_1 > Ta_0) but the earlier packet's
  // reply arrives later (huge RTT), so the best-pair Tf baseline is
  // negative. The ratio is negative → not > bound → the old code accepted
  // naive_rate's garbage (~7e-5 s/count against a 2e-9 nominal).
  std::vector<RawExchange> inverted(2);
  inverted[0] = RawExchange{0, 0.0005, 0.0006, 2'000'000};
  inverted[1] = RawExchange{100'000, 16.0005, 16.0006, 1'000'000};
  const auto inverted_result = smooth_offsets(inverted, params, nominal);
  EXPECT_EQ(inverted_result.period, nominal);
  ASSERT_EQ(inverted_result.offsets.size(), 2u);
  for (const auto offset : inverted_result.offsets)
    EXPECT_TRUE(std::isfinite(offset));

  // span == 0: the two best packets share the same Tf; the ratio is inf
  // (or NaN once the totals degenerate too). Must also keep the nominal.
  std::vector<RawExchange> same_tf(2);
  same_tf[0] = RawExchange{0, 0.0005, 0.0006, 1'000'000};
  same_tf[1] = RawExchange{100'000, 16.0005, 16.0006, 1'000'000};
  const auto same_tf_result = smooth_offsets(same_tf, params, nominal);
  EXPECT_EQ(same_tf_result.period, nominal);
  for (const auto offset : same_tf_result.offsets)
    EXPECT_TRUE(std::isfinite(offset));
}

TEST(Offline, AgingCanBeDisabled) {
  SyntheticLink link;
  auto trace = clean_trace(link, 200);
  auto params = test_params();
  params.enable_aging = false;
  const auto result =
      smooth_offsets(trace, params, link.config().period);
  EXPECT_EQ(result.offsets.size(), trace.size());
  EXPECT_NEAR(result.offsets[100] - theta_true(result, link, trace[100].tf),
              -link.asymmetry() / 2, 5e-6);
}

// -- The window pass on a pool -----------------------------------------------

/// `n` packets with uneven queueing, congestion bursts long enough to make
/// poor windows in several blocks, and a Tf step back (Ta moved with it, so
/// the RTT stays sane) at each index of `step_backs`.
std::vector<RawExchange> blocky_trace(
    std::size_t n, const std::vector<std::size_t>& step_backs) {
  SyntheticLink link;
  std::vector<RawExchange> trace;
  for (std::size_t i = 0; i < n; ++i) {
    const bool burst = i % 1500 >= 1450;
    const Seconds queue =
        burst ? 5e-3 : static_cast<double>(i * 7919 % 97) * 1e-6;
    trace.push_back(link.next(queue, queue / 2));
  }
  const auto back = static_cast<TscCount>(40 * 16.0 / link.config().period);
  for (const std::size_t k : step_backs) {
    trace[k].ta -= back;
    trace[k].tf -= back;
  }
  return trace;
}

/// The window pass as one serial loop over k, `lo` carried from packet to
/// packet: the oracle the block pass must match bit for bit. Reads r̂, p̄
/// and the timescale from `result`; returns the poor-window count.
std::size_t serial_window_pass(std::span<const RawExchange> trace,
                               const Params& params,
                               const OfflineResult& result,
                               std::vector<Seconds>& offsets) {
  const std::size_t n = trace.size();
  const auto point_error = [&](std::size_t i) {
    return delta_to_seconds(trace[i].rtt_counts() - result.rhat_counts,
                            result.period);
  };
  const Seconds half_window = params.offset_window / 2;
  offsets.assign(n, 0.0);
  std::size_t poor = 0;
  std::size_t lo = 0;
  for (std::size_t k = 0; k < n; ++k) {
    while (lo < k && result.timescale.between(trace[lo].tf, trace[k].tf) >
                         half_window)
      ++lo;
    double weight_sum = 0;
    double weighted = 0;
    Seconds best_total = std::numeric_limits<double>::infinity();
    std::size_t best_idx = k;
    for (std::size_t i = lo; i < n; ++i) {
      const Seconds distance =
          std::fabs(result.timescale.between(trace[i].tf, trace[k].tf));
      if (i > k && distance > half_window) break;
      const Seconds total =
          point_error(i) +
          (params.enable_aging ? params.aging_rate * distance : 0.0);
      if (total < best_total) {
        best_total = total;
        best_idx = i;
      }
      const double z = total / params.offset_quality;
      const double w = std::exp(-z * z);
      weight_sum += w;
      weighted += w * naive_offset(trace[i], result.timescale);
    }
    if (best_total <= params.extreme_quality() && weight_sum > 0.0) {
      offsets[k] = weighted / weight_sum;
    } else {
      offsets[k] = naive_offset(trace[best_idx], result.timescale);
      ++poor;
    }
  }
  return poor;
}

void expect_same_smoothing(const OfflineResult& a, const OfflineResult& b) {
  ASSERT_EQ(a.offsets.size(), b.offsets.size());
  for (std::size_t k = 0; k < a.offsets.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.offsets[k]),
              std::bit_cast<std::uint64_t>(b.offsets[k]))
        << "packet " << k;
  }
  EXPECT_EQ(a.poor_windows, b.poor_windows);
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.rhat_counts, b.rhat_counts);
}

TEST(OfflinePool, BlocksOnAnyPoolMatchTheSerialPass) {
  const double period = SyntheticLink().config().period;
  const struct {
    const char* name;
    std::size_t n;
    std::vector<std::size_t> step_backs;
  } cases[] = {
      {"fewer packets than one block", kSmoothBlock / 3, {}},
      {"exactly one block", kSmoothBlock, {}},
      {"several blocks plus a tail", 3 * kSmoothBlock + 777, {}},
      {"Tf steps back at and beside block starts",
       3 * kSmoothBlock + 777,
       {kSmoothBlock, kSmoothBlock + 1, 2 * kSmoothBlock - 1,
        3 * kSmoothBlock + 5}},
  };
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(4)};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto trace = blocky_trace(c.n, c.step_backs);
    const auto serial = smooth_offsets(trace, test_params(), period);
    std::vector<Seconds> oracle;
    EXPECT_EQ(serial_window_pass(trace, test_params(), serial, oracle),
              serial.poor_windows);
    for (std::size_t k = 0; k < c.n; ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(serial.offsets[k]),
                std::bit_cast<std::uint64_t>(oracle[k]))
          << "packet " << k;
    }
    if (c.n > kSmoothBlock) {
      EXPECT_GT(serial.poor_windows, 0u);
    }
    for (auto& pool : pools) {
      SCOPED_TRACE(pool.thread_count());
      expect_same_smoothing(
          smooth_offsets(trace, test_params(), period, &pool), serial);
    }
  }
}

}  // namespace
}  // namespace tscclock::core
