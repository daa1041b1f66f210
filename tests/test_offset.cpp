// Tests for the robust offset estimator θ̂(t) (paper §5.3 / §6.1).
#include "core/offset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/serialize.hpp"
#include "core/clock.hpp"
#include "core/point_error.hpp"
#include "sim/scenario.hpp"
#include "synthetic_link.hpp"

namespace tscclock::core {
namespace {

using testing::SyntheticLink;

Params test_params() {
  Params p;
  p.poll_period = 16.0;
  p.offset_window = 320.0;  // 20-packet window: tight and fast
  p.gap_threshold = 800.0;
  return p;
}

struct Harness {
  explicit Harness(const Params& params, const SyntheticLink& link)
      : params(params),
        filter(params),
        offset(params),
        clock(link.config().counter_base, 0.0, link.config().period) {}

  OffsetEvaluation feed(const RawExchange& ex, double gamma_local = 0.0,
                        bool gap = false, bool warmup = false) {
    filter.add(ex.rtt_counts());
    PacketRecord rec;
    rec.seq = seq++;
    rec.stamps = ex;
    rec.rtt = ex.rtt_counts();
    rec.error_counts = rec.rtt - filter.rhat();
    return offset.process(rec, clock, gamma_local, gap, warmup);
  }

  Params params;
  RttFilter filter;
  OffsetEstimator offset;
  CounterTimescale clock;  // perfectly aligned to true time
  std::uint64_t seq = 0;
};

TEST(Offset, FirstEstimateIsNaive) {
  SyntheticLink link;
  Harness h(test_params(), link);
  const auto eval = h.feed(link.next());
  // Aligned clock, clean link: θ̂_1 = −Δ/2.
  EXPECT_NEAR(eval.estimate, -link.asymmetry() / 2, 1e-9);
  EXPECT_TRUE(h.offset.has_estimate());
}

TEST(Offset, CleanStreamStaysAtAsymmetryAmbiguity) {
  SyntheticLink link;
  Harness h(test_params(), link);
  Seconds last = 0;
  for (int i = 0; i < 100; ++i) last = h.feed(link.next()).estimate;
  EXPECT_NEAR(last, -link.asymmetry() / 2, 1e-7);
}

TEST(Offset, WeightingSuppressesCongestedPackets) {
  // Alternate clean and heavily congested packets: the weighted estimate
  // must stay close to the clean level, unlike the naive per-packet values.
  SyntheticLink link;
  Harness h(test_params(), link);
  Seconds last = 0;
  for (int i = 0; i < 200; ++i) {
    const bool congested = i % 2 == 1;
    last = h.feed(link.next(congested ? 5e-3 : 0.0, 0.0)).estimate;
  }
  // Naive congested estimates sit at −Δ/2 − 2.5 ms; θ̂ must stay within µs.
  EXPECT_NEAR(last, -link.asymmetry() / 2, 5e-6);
}

TEST(Offset, FallbackWhenWholeWindowPoor) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  const Seconds before = h.offset.estimate();
  // Every packet in the window far beyond E** = 6E = 360 µs: fall back.
  OffsetEvaluation eval;
  for (int i = 0; i < 30; ++i) eval = h.feed(link.next(4e-3, 4e-3));
  EXPECT_TRUE(eval.fallback);
  // Held at the last measured value (γ_l = 0 here); the last measurement
  // happened a few packets after `before` was read, so allow µs slack.
  EXPECT_NEAR(eval.estimate, before, 2e-6);
  EXPECT_GT(h.offset.fallback_count(), 0u);
}

TEST(Offset, FallbackUsesLocalRateSlope) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  const Seconds before = h.offset.estimate();
  const double gamma = ppm(0.05);
  OffsetEvaluation eval;
  for (int i = 0; i < 30; ++i) eval = h.feed(link.next(4e-3, 4e-3), gamma);
  EXPECT_TRUE(eval.fallback);
  // eq. (23): estimate drifts at −γ̂_l per second of age.
  EXPECT_LT(eval.estimate, before);
  EXPECT_NEAR(eval.estimate, before - gamma * 30 * 16.0, gamma * 16.0 * 35);
}

TEST(Offset, SanityCheckStopsServerFaultJump) {
  // A 150 ms server stamp error leaves the RTT (and so point errors)
  // untouched; only the sanity check can contain it (paper Fig. 11b).
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  const Seconds before = h.offset.estimate();
  OffsetEvaluation eval;
  for (int i = 0; i < 10; ++i) eval = h.feed(link.next(0, 0, 0.150));
  EXPECT_TRUE(eval.sanity_triggered);
  EXPECT_NEAR(eval.estimate, before, 2e-3);  // damage ≤ ~ms (paper: ≤ 1 ms)
  EXPECT_GT(h.offset.sanity_count(), 0u);
}

TEST(Offset, RecoversAfterServerFaultEnds) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  for (int i = 0; i < 10; ++i) h.feed(link.next(0, 0, 0.150));
  // Fault over: once faulty packets age out of the window the estimate
  // returns to the clean level without a step.
  Seconds last = 0;
  for (int i = 0; i < 40; ++i) last = h.feed(link.next()).estimate;
  EXPECT_NEAR(last, -link.asymmetry() / 2, 1e-5);
}

TEST(Offset, SanityDisabledFollowsTheFault) {
  auto params = test_params();
  params.enable_offset_sanity = false;
  SyntheticLink link;
  Harness h(params, link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  OffsetEvaluation eval;
  for (int i = 0; i < 40; ++i) eval = h.feed(link.next(0, 0, 0.150));
  // Without the sanity stage the estimate is dragged to the faulty level —
  // the ablation shows exactly why stage (iv) exists.
  EXPECT_LT(eval.estimate, -0.1);
  EXPECT_EQ(h.offset.sanity_count(), 0u);
}

TEST(Offset, GapRecoveryViaWeightedPathWhenFreshPacketGood) {
  // A *good* fresh packet after a gap needs no special handling: its own
  // weight dominates the aged window and the weighted path recovers alone.
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  link.advance(3 * duration::kDay);
  const auto eval = h.feed(link.next(), 0.0, /*gap=*/true);
  EXPECT_TRUE(eval.weighted);
  EXPECT_FALSE(eval.gap_blend);
  EXPECT_NEAR(eval.estimate, -link.asymmetry() / 2, 1e-5);
}

TEST(Offset, GapBlendRecoversImmediately) {
  // A *mediocre* fresh packet (error > E** but offset roughly unbiased)
  // after a long gap: the whole window fails the quality cutoff, and the
  // §6.1 blend fires, siding with the fresh packet over the multi-day-old
  // estimate (whose age-inflated error is far larger).
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  link.advance(3 * duration::kDay);
  const auto eval = h.feed(link.next(250e-6, 250e-6), 0.0, /*gap=*/true);
  EXPECT_TRUE(eval.gap_blend);
  EXPECT_NEAR(eval.estimate, -link.asymmetry() / 2, 1e-5);
  EXPECT_GT(h.offset.gap_blend_count(), 0u);
}

TEST(Offset, GapBlendPrefersOldValueWhenFreshPacketPoor) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 50; ++i) h.feed(link.next());
  const Seconds before = h.offset.estimate();
  link.advance(30000.0);  // ~8 h: aging degrades the window beyond E**
  // Fresh packet is heavily congested (40 ms point error): the blend's
  // tie-break sides with the aged estimate, whose error is far smaller.
  const auto eval = h.feed(link.next(20e-3, 20e-3), 0.0, /*gap=*/true);
  EXPECT_TRUE(eval.gap_blend);
  EXPECT_NEAR(eval.estimate, before, 1e-4);
}

TEST(Offset, AgingPenalizesStalePackets) {
  // With aging enabled, an old perfect packet loses to a fresh mediocre
  // one; with aging disabled it dominates forever.
  auto params = test_params();
  params.offset_window = 320.0;
  SyntheticLink link;
  Harness h(params, link);
  const auto eval0 = h.feed(link.next());  // perfect first packet
  (void)eval0;
  OffsetEvaluation eval;
  for (int i = 0; i < 19; ++i) eval = h.feed(link.next(100e-6, 100e-6));
  // E^T of the first packet at age 304 s = 0 + 0.02PPM·304 ≈ 6 µs: still
  // excellent, so the estimate stays near the clean level.
  EXPECT_NEAR(eval.estimate, -link.asymmetry() / 2, 40e-6);
  EXPECT_LT(eval.min_total_error, 10e-6);
}

TEST(Offset, ReassessErrorsAfterUpwardShift) {
  SyntheticLink link;
  Harness h(test_params(), link);
  for (int i = 0; i < 30; ++i) h.feed(link.next());
  // Upward RTT shift of 0.9 ms: errors look like congestion...
  for (int i = 0; i < 10; ++i) h.feed(link.next(0.45e-3, 0.45e-3));
  // ...until the detector raises r̂; re-assess marks them good again.
  const auto new_rhat = static_cast<TscDelta>(
      (link.min_rtt() + 0.9e-3) / link.config().period);
  h.offset.reassess_errors(new_rhat, 30);
  const auto eval = h.feed(link.next(0.45e-3, 0.45e-3));
  // Weighted path resumes (errors now near zero for post-shift packets).
  EXPECT_TRUE(eval.weighted);
  EXPECT_LT(eval.min_total_error, test_params().extreme_quality());
}

TEST(Offset, EstimateThrowsBeforeFirstPacket) {
  OffsetEstimator offset(test_params());
  EXPECT_THROW((void)offset.estimate(), ContractViolation);
  EXPECT_FALSE(offset.has_estimate());
}

TEST(Offset, WeightingDisabledUsesFallbackPath) {
  auto params = test_params();
  params.enable_weighting = false;
  SyntheticLink link;
  Harness h(params, link);
  h.feed(link.next());
  const auto eval = h.feed(link.next());
  EXPECT_FALSE(eval.weighted);
  EXPECT_TRUE(eval.fallback);
}

// -- Every packet's estimate, pinned ------------------------------------------

struct EstimateDigest {
  std::uint64_t digest = 0;
  std::size_t packets = 0;
  std::size_t weighted = 0;
};

/// The robust clock over a simulated two-day stream: an FNV-1a digest of
/// θ̂(t) after every arrived packet, as exact hexfloat. The reduction goldens
/// hash percentiles and means, where one changed weight could hide; this
/// one moves if any packet's weighted sum does.
EstimateDigest online_estimates(sim::ServerKind server, std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.server = server;
  config.environment = sim::Environment::kLaboratory;
  config.poll_period = 16.0;
  config.duration = 2 * duration::kDay;
  config.seed = seed;
  sim::Testbed testbed(config);
  TscNtpClock clock(Params::for_poll_period(config.poll_period),
                    testbed.nominal_period());
  std::string text;
  EstimateDigest result;
  while (const auto ex = testbed.next()) {
    if (ex->lost) continue;
    const ProcessReport report = clock.process_exchange(
        RawExchange{ex->ta_counts, ex->tb_stamp, ex->te_stamp, ex->tf_counts});
    append_double_exact(text, report.offset_estimate);
    text += '\n';
    ++result.packets;
    if (report.offset_weighted) ++result.weighted;
  }
  result.digest = fnv1a64(text);
  return result;
}

TEST(OffsetGolden, EveryPacketsEstimateOnTwoDayLabStreamsIsPinned) {
  const struct {
    sim::ServerKind server;
    std::uint64_t seed;
    std::size_t packets;
    std::uint64_t digest;
  } cases[] = {
      {sim::ServerKind::kLoc, 20041025, 10779, 0x99183b579dde9ca3ull},
      {sim::ServerKind::kInt, 20041026, 10771, 0x42372fa2c0aa1bedull},
      {sim::ServerKind::kExt, 20041027, 10727, 0x4ed71c5b58f4e2a4ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(sim::to_string(c.server));
    const EstimateDigest got = online_estimates(c.server, c.seed);
    EXPECT_EQ(got.packets, c.packets);
    EXPECT_GT(got.weighted, got.packets / 2);
    EXPECT_EQ(got.digest, c.digest);
  }
}

}  // namespace
}  // namespace tscclock::core
