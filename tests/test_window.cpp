// Tests for the top-level sliding window (paper §6.1 "Windowing").
#include "core/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace tscclock::core {
namespace {

Params test_params() {
  Params p;
  p.poll_period = 16.0;
  p.top_window = 16.0 * 20;  // 20-packet top window for tight tests
  // Keep the cross-field invariant top_window >= local_rate_window.
  p.local_rate_window = 16.0 * 10;
  p.gap_threshold = 16.0 * 5;
  p.shift_window = 16.0 * 5;
  return p;
}

/// Params whose top window is exactly `n` packets.
Params params_for_window(std::size_t n) {
  Params p;
  p.poll_period = 16.0;
  p.top_window = 16.0 * static_cast<double>(n);
  p.local_rate_window = 16.0;  // keep top_window >= local_rate_window
  return p;
}

/// The §6.1 rule applied literally: keep every packet; when the window
/// holds N, drop the oldest half and rescan what is retained.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(std::size_t n) : n_(n) {}

  TopWindow::Update add(const PacketRecord& packet,
                        std::uint64_t min_valid_seq) {
    TopWindow::Update update;
    kept_.push_back(packet);
    if (kept_.size() < n_) return update;
    kept_.erase(kept_.begin(),
                kept_.begin() + static_cast<std::ptrdiff_t>(kept_.size() / 2));
    ++updates_;
    update.triggered = true;
    update.oldest_seq = kept_.front().seq;
    std::optional<TscDelta> restricted;
    TscDelta all = kept_.front().rtt;
    for (const auto& p : kept_) {
      all = std::min(all, p.rtt);
      if (p.seq >= min_valid_seq && (!restricted || p.rtt < *restricted))
        restricted = p.rtt;
    }
    update.new_rhat = restricted.value_or(all);
    const std::size_t quarter = std::max<std::size_t>(1, kept_.size() / 4);
    std::size_t best = 0;
    for (std::size_t k = 1; k < quarter; ++k)
      if (kept_[k].rtt < kept_[best].rtt) best = k;
    update.anchor_candidate = kept_[best];
    update.anchor_error_counts =
        std::max<TscDelta>(0, kept_[best].rtt - update.new_rhat);
    return update;
  }

  [[nodiscard]] std::size_t stored() const { return kept_.size(); }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }

 private:
  std::size_t n_;
  std::vector<PacketRecord> kept_;
  std::uint64_t updates_ = 0;
};

PacketRecord make_record(std::uint64_t seq, TscDelta rtt) {
  PacketRecord rec;
  rec.seq = seq;
  rec.rtt = rtt;
  rec.stamps.ta = 1000 * seq;
  rec.stamps.tf = 1000 * seq + static_cast<TscCount>(rtt);
  return rec;
}

TEST(TopWindow, NoUpdateUntilFull) {
  TopWindow w(test_params());
  for (std::uint64_t i = 0; i < 19; ++i) {
    const auto u = w.add(make_record(i, 1000), 0);
    EXPECT_FALSE(u.triggered);
  }
  EXPECT_EQ(w.stored(), 19u);
}

TEST(TopWindow, UpdateDiscardsOldestHalf) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i)
    update = w.add(make_record(i, 1000 + static_cast<TscDelta>(i)), 0);
  EXPECT_TRUE(update.triggered);
  EXPECT_EQ(w.stored(), 10u);
  EXPECT_EQ(update.oldest_seq, 10u);
  EXPECT_EQ(w.updates(), 1u);
}

TEST(TopWindow, NewMinimumFromRetainedHalf) {
  TopWindow w(test_params());
  TopWindow::Update update;
  // Oldest half has the global min (900); retained half bottoms at 1000.
  for (std::uint64_t i = 0; i < 10; ++i)
    update = w.add(make_record(i, 900 + static_cast<TscDelta>(i)), 0);
  for (std::uint64_t i = 10; i < 20; ++i)
    update = w.add(make_record(i, 1000 + static_cast<TscDelta>(i)), 0);
  ASSERT_TRUE(update.triggered);
  EXPECT_EQ(update.new_rhat, 1010);  // min of retained half
}

TEST(TopWindow, MinRespectsShiftPoint) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i)
    update = w.add(make_record(i, i < 15 ? 1000 : 2000), /*min_valid_seq=*/15);
  ASSERT_TRUE(update.triggered);
  // Only packets with seq >= 15 count: minimum is the post-shift level.
  EXPECT_EQ(update.new_rhat, 2000);
}

TEST(TopWindow, MinFallsBackWhenNoPacketBeyondShiftPoint) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i)
    update = w.add(make_record(i, 1000), /*min_valid_seq=*/1000);
  ASSERT_TRUE(update.triggered);
  EXPECT_EQ(update.new_rhat, 1000);  // all-retained fallback
}

TEST(TopWindow, AnchorCandidateFromOldestQuarterBestQuality) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i) {
    // Retained half = seqs 10..19; its oldest quarter = seqs 10,11.
    const TscDelta rtt = (i == 11) ? 500 : 1000;
    update = w.add(make_record(i, rtt), 0);
  }
  ASSERT_TRUE(update.triggered);
  ASSERT_TRUE(update.anchor_candidate.has_value());
  EXPECT_EQ(update.anchor_candidate->seq, 11u);
  EXPECT_EQ(update.anchor_error_counts, 0);  // it *is* the minimum
}

TEST(TopWindow, RepeatedUpdatesEveryHalfWindow) {
  TopWindow w(test_params());
  int updates = 0;
  for (std::uint64_t i = 0; i < 100; ++i)
    if (w.add(make_record(i, 1000), 0).triggered) ++updates;
  // First at 20, then every 10 packets: (100-20)/10 + 1 = 9.
  EXPECT_EQ(updates, 9);
  EXPECT_EQ(w.updates(), 9u);
}

TEST(TopWindow, AnchorErrorNonNegative) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i)
    update = w.add(make_record(i, 1500 - static_cast<TscDelta>(i * 10)), 0);
  ASSERT_TRUE(update.triggered);
  EXPECT_GE(update.anchor_error_counts, 0);
}

// Odd N (the firing packet opens the next candidate zone), N <= 3 (zones of
// one packet, and N = 1 where every later update fires at 2) and even N,
// against the literal rule on random RTT streams. RTTs are drawn from a
// narrow range so ties are common and the first-strict-minimum rule shows.
TEST(TopWindow, MatchesBruteForceReferenceOnRandomStreams) {
  for (const std::size_t n : {1u, 2u, 3u, 20u, 21u, 64u, 65u}) {
    SCOPED_TRACE("N = " + std::to_string(n));
    std::mt19937_64 rng(0x5eed0000 + n);
    TopWindow window(params_for_window(n));
    ReferenceWindow reference(n);
    std::uint64_t seq = rng() % 1000;
    std::uint64_t shift = 0;
    for (std::size_t i = 0; i < 40 * n + 200; ++i, ++seq) {
      // Random shift points: mostly inside the window, sometimes ahead of
      // every retained packet (the all-retained fallback).
      if (rng() % 16 == 0) {
        const std::uint64_t back = rng() % (2 * n + 2);
        shift = rng() % 4 == 0 ? seq + 1 + rng() % 3
                               : (seq > back ? seq - back : 0);
      }
      PacketRecord packet = make_record(seq, 1000 + static_cast<TscDelta>(
                                                        rng() % 24));
      packet.stamps.tb = static_cast<double>(rng() % 1000000) * 1e-6;
      packet.stamps.te = packet.stamps.tb + 1e-5;
      packet.error_counts = static_cast<TscDelta>(rng() % 7);
      const auto got = window.add(packet, shift);
      const auto want = reference.add(packet, shift);
      SCOPED_TRACE("packet " + std::to_string(i));
      ASSERT_EQ(got.triggered, want.triggered);
      ASSERT_EQ(got.new_rhat, want.new_rhat);
      ASSERT_EQ(got.oldest_seq, want.oldest_seq);
      ASSERT_EQ(got.anchor_candidate.has_value(),
                want.anchor_candidate.has_value());
      if (want.anchor_candidate) {
        const PacketRecord& a = *got.anchor_candidate;
        const PacketRecord& b = *want.anchor_candidate;
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.stamps.ta, b.stamps.ta);
        ASSERT_EQ(a.stamps.tb, b.stamps.tb);
        ASSERT_EQ(a.stamps.te, b.stamps.te);
        ASSERT_EQ(a.stamps.tf, b.stamps.tf);
        ASSERT_EQ(a.rtt, b.rtt);
        ASSERT_EQ(a.error_counts, b.error_counts);
      }
      ASSERT_EQ(got.anchor_error_counts, want.anchor_error_counts);
      ASSERT_EQ(window.stored(), reference.stored());
      ASSERT_EQ(window.updates(), reference.updates());
    }
    EXPECT_GT(window.updates(), 10u);
  }
}

}  // namespace
}  // namespace tscclock::core
