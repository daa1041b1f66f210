// Tests for the SW-NTP baseline (clock filter, PLL discipline, SwNtpClock).
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/clock_filter.hpp"
#include "baseline/pll.hpp"
#include "baseline/swntp.hpp"
#include "synthetic_link.hpp"

namespace tscclock::baseline {
namespace {

using testing::SyntheticLink;

// ------------------------------------------------------------ clock filter
TEST(ClockFilter, SelectsMinimumDelaySample) {
  ClockFilter f;
  f.add({1e-3, 10e-3, 1.0});
  const auto s = f.add({2e-3, 2e-3, 2.0});
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->offset, 2e-3);  // lower delay wins
}

TEST(ClockFilter, DoesNotReuseStaleSelection) {
  ClockFilter f;
  auto s = f.add({1e-3, 1e-3, 1.0});
  ASSERT_TRUE(s.has_value());
  // A worse sample arrives: best is still the old one → not reused.
  s = f.add({5e-3, 9e-3, 2.0});
  EXPECT_FALSE(s.has_value());
}

TEST(ClockFilter, RegisterHoldsEightStages) {
  ClockFilter f;
  for (int i = 0; i < 20; ++i)
    f.add({0.0, 1e-3 * (i + 1), static_cast<Seconds>(i)});
  EXPECT_EQ(f.size(), ClockFilter::kStages);
}

TEST(ClockFilter, TiesGoToTheOldestSample) {
  ClockFilter f;
  f.add({1.0, 2e-3, 1.0});
  ASSERT_TRUE(f.add({2.0, 1e-3, 2.0}).has_value());
  // Epoch 3 ties epoch 2's delay: the older one stays selected (and used).
  EXPECT_FALSE(f.add({3.0, 1e-3, 3.0}).has_value());
  for (int epoch = 4; epoch <= 9; ++epoch)
    EXPECT_FALSE(f.add({0.0, 5e-3, static_cast<Seconds>(epoch)}).has_value());
  // Epoch 10 evicts epoch 2: the tie's younger half is selected next.
  const auto s = f.add({0.0, 5e-3, 10.0});
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->offset, 3.0);
}

// --------------------------------------------------------------------- pll
TEST(Pll, SlewsSmallOffsets) {
  Pll pll(PllConfig{});
  const auto u = pll.update(1e-3, 100.0, 64.0);
  EXPECT_EQ(u.action, Pll::Action::kSlewed);
  EXPECT_GT(u.frequency, 0.0);
  EXPECT_EQ(pll.steps(), 0u);
}

TEST(Pll, FrequencyIntegratesOffsets) {
  Pll pll(PllConfig{});
  double freq = 0;
  for (int i = 0; i < 50; ++i)
    freq = pll.update(1e-3, 100.0 + i * 64.0, 64.0).frequency;
  EXPECT_GT(freq, 0.0);
  EXPECT_LE(freq, PllConfig{}.max_freq);
}

TEST(Pll, FrequencyClamped) {
  Pll pll(PllConfig{});
  double freq = 0;
  for (int i = 0; i < 100000; ++i)
    freq = pll.update(0.127, 100.0 + i * 64.0, 64.0).frequency;
  EXPECT_LE(std::fabs(freq), PllConfig{}.max_freq + 1e-12);
}

TEST(Pll, LargeOffsetIgnoredThenStepped) {
  Pll pll(PllConfig{});
  // First big offset: tolerated as a possible spike.
  auto u = pll.update(0.150, 1000.0, 64.0);
  EXPECT_EQ(u.action, Pll::Action::kIgnored);
  // Still large within the stepout window: still ignored.
  u = pll.update(0.150, 1000.0 + 500.0, 64.0);
  EXPECT_EQ(u.action, Pll::Action::kIgnored);
  // Beyond stepout (900 s): step.
  u = pll.update(0.150, 1000.0 + 901.0, 64.0);
  EXPECT_EQ(u.action, Pll::Action::kStepped);
  EXPECT_DOUBLE_EQ(u.step, 0.150);
  EXPECT_EQ(pll.steps(), 1u);
}

TEST(Pll, SpikeStateClearsOnGoodSample) {
  Pll pll(PllConfig{});
  pll.update(0.150, 1000.0, 64.0);           // enter spike state
  const auto u = pll.update(1e-3, 1064.0, 64.0);  // normal sample
  EXPECT_EQ(u.action, Pll::Action::kSlewed);
  // A later large offset restarts the stepout timer.
  const auto v = pll.update(0.150, 1128.0, 64.0);
  EXPECT_EQ(v.action, Pll::Action::kIgnored);
}

// ------------------------------------------------------------------ swntp
TEST(SwNtpClock, InitialSetFromFirstExchange) {
  SyntheticLink link;
  SwNtpClock sw(PllConfig{}, link.config().period);
  const auto ex = link.next();
  sw.process_exchange(ex);
  // Clock lands near the server timescale (true time here).
  const Seconds reading = sw.time(ex.tf);
  EXPECT_NEAR(reading, ex.te + link.config().d_backward, 1e-3);
}

TEST(SwNtpClock, TracksOffsetWithinMilliseconds) {
  SyntheticLink link;
  // 50 PPM tick error, as a real kernel would have.
  SwNtpClock sw(PllConfig{}, link.config().period * 1.00005);
  core::RawExchange last;
  for (int i = 0; i < 2000; ++i) {
    last = link.next();
    sw.process_exchange(last);
  }
  const Seconds true_tf = link.now() - link.config().poll + link.min_rtt();
  EXPECT_NEAR(sw.time(last.tf), true_tf, 5e-3);
}

TEST(SwNtpClock, StepsOnPersistentServerFault) {
  // The contrast with TscNtpClock's sanity check: a >15-minute 150 ms
  // server fault eventually *steps* the SW clock (the reset the paper
  // criticizes).
  SyntheticLink link;
  SwNtpClock sw(PllConfig{}, link.config().period);
  for (int i = 0; i < 500; ++i) sw.process_exchange(link.next());
  EXPECT_EQ(sw.status().steps, 0u);
  for (int i = 0; i < 80; ++i)  // 80 × 16 s = 21 min > stepout
    sw.process_exchange(link.next(0, 0, 0.150));
  EXPECT_GE(sw.status().steps, 1u);
  // And the clock followed the faulty stamps.
  const auto ex = link.next(0, 0, 0.150);
  sw.process_exchange(ex);
  EXPECT_NEAR(sw.time(ex.tf) - (link.now() - link.config().poll), 0.150,
              20e-3);
}

TEST(SwNtpClock, EffectiveRateVariesUnderDiscipline) {
  // The paper's point about SW-NTP: rate is deliberately varied. Feed an
  // alternating offset pattern and observe the effective rate moving.
  SyntheticLink link;
  SwNtpClock sw(PllConfig{}, link.config().period * 1.00002);
  double min_rate = 10.0;
  double max_rate = 0.0;
  for (int i = 0; i < 1000; ++i) {
    sw.process_exchange(link.next(i % 20 < 10 ? 0.0 : 1e-3, 0.0));
    min_rate = std::min(min_rate, sw.effective_rate());
    max_rate = std::max(max_rate, sw.effective_rate());
  }
  EXPECT_GT(max_rate - min_rate, ppm(1.0));  // ≥ 1 PPM of rate wobble
}

TEST(SwNtpClock, StatusCountsSamples) {
  SyntheticLink link;
  SwNtpClock sw(PllConfig{}, link.config().period);
  for (int i = 0; i < 50; ++i) sw.process_exchange(link.next());
  const auto s = sw.status();
  EXPECT_EQ(s.samples, 50u);
  EXPECT_GT(s.filter_selections, 0u);
}

TEST(SwNtpClock, RejectsNonCausalExchange) {
  SyntheticLink link;
  SwNtpClock sw(PllConfig{}, link.config().period);
  core::RawExchange bad = link.next();
  bad.tf = bad.ta;
  EXPECT_THROW(sw.process_exchange(bad), ContractViolation);
}

}  // namespace
}  // namespace tscclock::baseline
