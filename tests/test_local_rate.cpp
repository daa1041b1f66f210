// Tests for the quasi-local rate estimator p̂_l (paper §5.2).
#include "core/local_rate.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/point_error.hpp"
#include "synthetic_link.hpp"

namespace tscclock::core {
namespace {

using testing::SyntheticLink;

Params test_params() {
  Params p;
  p.poll_period = 16.0;
  p.local_rate_window = 1600.0;  // 100 packets: manageable test sizes
  p.gap_threshold = 800.0;
  p.local_rate_subwindows = 10;
  return p;
}

struct Harness {
  explicit Harness(const Params& params)
      : params(params), filter(params), local(params) {}

  LocalRateEstimator::Result feed(const RawExchange& ex, double pbar) {
    filter.add(ex.rtt_counts());
    PacketRecord rec;
    rec.seq = seq++;
    rec.stamps = ex;
    rec.rtt = ex.rtt_counts();
    rec.error_counts = rec.rtt - filter.rhat();
    return local.process(rec, filter.point_error(rec.rtt, pbar), pbar);
  }

  Params params;
  RttFilter filter;
  LocalRateEstimator local;
  std::uint64_t seq = 0;
};

TEST(LocalRate, NoEstimateUntilFarWindowReached) {
  SyntheticLink link;
  const double pbar = link.config().period;
  Harness h(test_params());
  // Window is 100 packets; nothing before ~90 packets of history.
  for (int i = 0; i < 50; ++i) {
    const auto res = h.feed(link.next(), pbar);
    EXPECT_FALSE(res.evaluated);
  }
  EXPECT_FALSE(h.local.usable());
}

TEST(LocalRate, ConvergesOnCleanData) {
  SyntheticLink link;
  const double truth = link.config().period;
  Harness h(test_params());
  for (int i = 0; i < 150; ++i) h.feed(link.next(), truth);
  ASSERT_TRUE(h.local.usable());
  EXPECT_NEAR(h.local.period() / truth, 1.0, 1e-8);
  EXPECT_NEAR(h.local.residual_rate(truth), 0.0, 1e-8);
}

TEST(LocalRate, QualityGateHoldsPreviousValue) {
  SyntheticLink link;
  const double truth = link.config().period;
  Harness h(test_params());
  for (int i = 0; i < 150; ++i) h.feed(link.next(), truth);
  ASSERT_TRUE(h.local.usable());
  const double before = h.local.period();
  // Congest everything. While clean packets remain in the near sub-window
  // (first ~10 packets) candidates can still pass; once the near window is
  // all-congested, every candidate fails the γ* gate and the value holds.
  double last = before;
  for (int i = 0; i < 40; ++i) {
    const auto res = h.feed(link.next(3e-3, 3e-3), truth);
    if (i >= 15) {
      EXPECT_FALSE(res.accepted) << "at congested packet " << i;
    }
    if (res.accepted) last = h.local.period();
  }
  EXPECT_DOUBLE_EQ(h.local.period(), last);         // held since last accept
  EXPECT_NEAR(h.local.period() / before, 1.0, 1e-7);  // and still sane
}

TEST(LocalRate, SanityCheckBlocksWildCandidates) {
  // Force a candidate differing by > 3e-7 in relative terms via corrupted
  // server stamps on otherwise low-delay packets.
  SyntheticLink link;
  const double truth = link.config().period;
  auto params = test_params();
  Harness h(params);
  for (int i = 0; i < 150; ++i) h.feed(link.next(), truth);
  ASSERT_TRUE(h.local.usable());
  const double before = h.local.period();
  // Server stamps advance 1 ms too fast across the near window: the
  // candidate rate shifts by ~1ms/1600s ≈ 6e-7 > 3e-7.
  bool blocked = false;
  for (int i = 0; i < 30; ++i) {
    const auto res = h.feed(link.next(0, 0, 1e-3 * (i + 1)), truth);
    blocked = blocked || res.sanity_blocked;
  }
  EXPECT_TRUE(blocked);
  EXPECT_GT(h.local.sanity_count(), 0u);
  EXPECT_DOUBLE_EQ(h.local.period(), before);
}

TEST(LocalRate, SanityCheckCanBeDisabled) {
  SyntheticLink link;
  const double truth = link.config().period;
  auto params = test_params();
  params.enable_rate_sanity = false;
  Harness h(params);
  for (int i = 0; i < 150; ++i) h.feed(link.next(), truth);
  for (int i = 0; i < 30; ++i) h.feed(link.next(0, 0, 1e-3 * (i + 1)), truth);
  EXPECT_EQ(h.local.sanity_count(), 0u);
}

TEST(LocalRate, GapMarksStaleAndRecovers) {
  SyntheticLink link;
  const double truth = link.config().period;
  Harness h(test_params());
  for (int i = 0; i < 150; ++i) h.feed(link.next(), truth);
  ASSERT_TRUE(h.local.usable());

  link.advance(2000.0);  // > τ̄/2 = 800 s gap
  const auto res = h.feed(link.next(), truth);
  EXPECT_TRUE(res.gap_reset);
  EXPECT_TRUE(h.local.stale());
  EXPECT_FALSE(h.local.usable());
  EXPECT_DOUBLE_EQ(h.local.residual_rate(truth), 0.0);  // unusable → 0

  // A fresh full window clears staleness.
  for (int i = 0; i < 150; ++i) h.feed(link.next(), truth);
  EXPECT_FALSE(h.local.stale());
  EXPECT_TRUE(h.local.usable());
}

TEST(LocalRate, DetectsGenuineLocalRateChange) {
  // A link whose true period drifts by 0.04 PPM between the far and near
  // windows: p̂_l must land between the two, closer to the recent value,
  // while staying within the sanity bound.
  SyntheticLink::Config config;
  Harness h(test_params());
  const double p0 = config.period;
  SyntheticLink link(config);
  for (int i = 0; i < 120; ++i) h.feed(link.next(), p0);
  // Simulate drift by shifting server stamps progressively (equivalent to a
  // slightly different true rate over the recent past).
  const double drift = ppm(0.04);
  for (int i = 0; i < 120; ++i)
    h.feed(link.next(0, 0, drift * 16.0 * (i + 1)), p0);
  ASSERT_TRUE(h.local.usable());
  const double gamma = h.local.residual_rate(p0);
  EXPECT_GT(gamma, ppm(0.01));
  EXPECT_LT(gamma, ppm(0.08));
}

TEST(LocalRate, ResidualRateRequiresPositivePbar) {
  LocalRateEstimator local(test_params());
  EXPECT_THROW((void)local.residual_rate(0.0), ContractViolation);
}

// -- Every packet's result, pinned --------------------------------------------

struct ResultDigest {
  std::uint64_t digest = 0;
  std::size_t gap_resets = 0;
  std::size_t sanity_blocked = 0;
  std::size_t gate_rejected = 0;  ///< evaluated, neither accepted nor blocked
  bool wrapped = false;           ///< some exchange's Tf wrapped past 2^64
};

/// A bare LocalRateEstimator over a seeded 1200-packet stress stream:
/// queueing with heavy bursts, a 60-packet congestion episode that fails
/// the quality gate, a run of low-delay packets whose server stamps drift
/// by a millisecond a packet (sanity-blocked candidates), a gap longer
/// than τ̄/2 (gap reset, then stale until the window refills), a global
/// period p̄ re-estimated every 50 packets, and counters that wrap past
/// 2^64. An FNV-1a digest of every packet's Result flags, p̂_l and γ̂_l as
/// exact hexfloat, and both counters.
ResultDigest stress_result_digest(const Params& params, std::uint64_t seed) {
  SyntheticLink::Config link_config;
  link_config.poll = params.poll_period;
  link_config.counter_base = 0xffff'ff00'0000'0000ull;
  SyntheticLink link(link_config);
  Rng rng(seed);
  Harness h(params);

  constexpr std::size_t kPackets = 1200;
  constexpr std::size_t kEpisodeAt = 450;
  constexpr std::size_t kEpisodeEnd = 510;
  constexpr std::size_t kDriftAt = 650;
  constexpr std::size_t kDriftEnd = 690;
  constexpr std::size_t kGapAt = 900;
  std::string text;
  ResultDigest result;
  double pbar = link_config.period;
  for (std::size_t k = 0; k < kPackets; ++k) {
    if (k == kGapAt) link.advance(params.gap_threshold * 2.5);
    if (k % 50 == 0)
      pbar = link_config.period *
             (1 + 1e-8 * static_cast<double>(k / 50 % 3) - 1e-8);
    const Seconds burst = rng.uniform() < 0.1 ? rng.exponential(2e-3) : 0.0;
    const Seconds episode = k >= kEpisodeAt && k < kEpisodeEnd ? 3e-3 : 0.0;
    const Seconds drift = k >= kDriftAt && k < kDriftEnd
                              ? 1e-3 * static_cast<double>(k - kDriftAt + 1)
                              : 0.0;
    const Seconds q_forward = episode + rng.exponential(30e-6) + burst;
    const Seconds q_backward = episode + rng.exponential(30e-6);
    const RawExchange ex = link.next(q_forward, q_backward, drift);
    if (ex.tf < link_config.counter_base) result.wrapped = true;
    const LocalRateEstimator::Result res = h.feed(ex, pbar);
    text += res.evaluated ? 'e' : '-';
    text += res.accepted ? 'a' : '-';
    text += res.sanity_blocked ? 's' : '-';
    text += res.gap_reset ? 'g' : '-';
    text += ' ';
    if (h.local.accepted_count() > 0) {
      text += std::to_string(std::bit_cast<std::uint64_t>(h.local.period()));
      text += ' ';
    }
    append_double_exact(text, h.local.residual_rate(pbar));
    text += ' ' + std::to_string(h.local.accepted_count()) + ' ' +
            std::to_string(h.local.sanity_count()) + '\n';
    if (res.gap_reset) ++result.gap_resets;
    if (res.sanity_blocked) ++result.sanity_blocked;
    if (res.evaluated && !res.accepted && !res.sanity_blocked)
      ++result.gate_rejected;
  }
  result.digest = fnv1a64(text);
  return result;
}

TEST(LocalRateGolden, EveryPacketsResultOnStressStreamsIsPinned) {
  const auto with = [](Seconds poll, auto edit) {
    Params p = Params::for_poll_period(poll);
    edit(p);
    return p;
  };
  const struct {
    const char* name;
    Params params;
    std::uint64_t digest;
  } cases[] = {
      {"small_window", test_params(), 0x82a67b28684baffeull},
      {"default", with(16.0, [](Params&) {}), 0x004d2a50d058e0d1ull},
      {"no_rate_sanity",
       with(16.0, [](Params& p) { p.enable_rate_sanity = false; }),
       0x13135f050657e469ull},
      {"poll_64s", with(64.0, [](Params&) {}), 0x906bcf6878d92ea3ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const ResultDigest got = stress_result_digest(c.params, 33);
    EXPECT_TRUE(got.wrapped);
    EXPECT_EQ(got.gap_resets, 1u);
    EXPECT_GT(got.gate_rejected, 0u);
    if (c.params.enable_rate_sanity) {
      EXPECT_GT(got.sanity_blocked, 0u);
    }
    EXPECT_EQ(got.digest, c.digest) << std::hex << got.digest;
  }
}

}  // namespace
}  // namespace tscclock::core
