// Tests for parameter defaults (they must equal the paper's values) and
// validation.
#include "core/params.hpp"

#include <gtest/gtest.h>

namespace tscclock::core {
namespace {

TEST(Params, PaperDefaults) {
  const Params p;
  EXPECT_DOUBLE_EQ(p.delta, 15e-6);                      // δ = 15 µs
  EXPECT_DOUBLE_EQ(p.rate_accept_error, 20 * 15e-6);     // E* = 20δ
  EXPECT_DOUBLE_EQ(p.skm_scale, 1000.0);                 // τ*
  EXPECT_DOUBLE_EQ(p.local_rate_window, 5000.0);         // τ̄ = 5τ*
  EXPECT_EQ(p.local_rate_subwindows, 30u);               // W
  EXPECT_DOUBLE_EQ(p.local_rate_quality, 0.05e-6);       // γ*
  EXPECT_DOUBLE_EQ(p.rate_sanity_threshold, 3e-7);
  EXPECT_DOUBLE_EQ(p.offset_window, 1000.0);             // τ' = τ*
  EXPECT_DOUBLE_EQ(p.offset_quality, 60e-6);             // E = 4δ
  EXPECT_DOUBLE_EQ(p.aging_rate, 0.02e-6);               // ε
  EXPECT_DOUBLE_EQ(p.extreme_quality(), 6 * 60e-6);      // E** = 6E
  EXPECT_DOUBLE_EQ(p.offset_sanity, 1e-3);               // Es
  EXPECT_DOUBLE_EQ(p.shift_window, 2500.0);              // Ts = τ̄/2
  EXPECT_DOUBLE_EQ(p.shift_detect_factor, 4.0);          // 4E
  EXPECT_DOUBLE_EQ(p.top_window, 7 * 86400.0);           // T = 1 week
  EXPECT_DOUBLE_EQ(p.rate_error_bound, 0.1e-6);          // 0.1 PPM
  EXPECT_DOUBLE_EQ(p.gap_threshold, 2500.0);             // τ̄/2
}

TEST(Params, PacketsConversion) {
  Params p;
  p.poll_period = 16.0;
  EXPECT_EQ(p.packets(1000.0), 62u);
  EXPECT_EQ(p.packets(16.0), 1u);
  EXPECT_EQ(p.packets(1.0), 1u);  // never zero
  p.poll_period = 256.0;
  EXPECT_EQ(p.packets(1000.0), 3u);
}

TEST(Params, ForPollPeriodKeepsTimeWindows) {
  const auto p = Params::for_poll_period(64.0);
  EXPECT_DOUBLE_EQ(p.poll_period, 64.0);
  EXPECT_DOUBLE_EQ(p.offset_window, 1000.0);  // unchanged in *time*
  EXPECT_EQ(p.packets(p.offset_window), 15u);
}

// A poll period so small that a window's packet count leaves the range a
// double holds exactly is refused: the double -> size_t conversion would be
// undefined beyond size_t, and a wrapped count would be silently wrong.
TEST(Params, RefusesPollPeriodWhoseWindowCountsDoNotFit) {
  Params p;
  p.poll_period = 1e-300;
  EXPECT_FALSE(p.window_counts_fit());
  EXPECT_THROW(p.validate(), ContractViolation);
  EXPECT_THROW((void)p.packets(p.top_window), ContractViolation);
  p.poll_period = 1e-12;  // a week is 6e17 packets, above 2^53
  EXPECT_THROW(p.validate(), ContractViolation);
  p.poll_period = 0x1p-30;  // 6.5e14 packets still fit
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.packets(1.0), std::size_t{1} << 30);
  p.poll_period = 1e300;  // every window is one packet: valid
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.packets(p.top_window), 1u);
}

TEST(Params, ValidationCatchesNonsense) {
  Params p;
  p.delta = 0.0;
  EXPECT_THROW(p.validate(), ContractViolation);
  p = Params{};
  p.local_rate_subwindows = 2;
  EXPECT_THROW(p.validate(), ContractViolation);
  p = Params{};
  p.extreme_quality_factor = 1.0;
  EXPECT_THROW(p.validate(), ContractViolation);
  p = Params{};
  p.top_window = 100.0;  // smaller than τ̄
  EXPECT_THROW(p.validate(), ContractViolation);
  p = Params{};
  EXPECT_NO_THROW(p.validate());
}

}  // namespace
}  // namespace tscclock::core
