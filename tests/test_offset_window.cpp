// Differential test of the offset window pass (core/offset_window.hpp).
// The scalar body is checked against the estimator's per-packet expressions
// written out over whole exchanges (naive_offset and all), and the AVX2
// body against the scalar body, bit for bit: every window length up to a
// full 64-slot ring plus three, so every tail of zero to three lanes runs;
// counters that wrap past 2^64; an anchor more than 2^53 counts from the
// window, where the conversions round; zero error counts; aging on and
// off; the warm-up-inflated E; windows split into two runs at every point.
// The int64 → double conversion alone is checked against static_cast on
// its edges and 10^7 seeded values. Hosts without AVX2 skip the vector
// cases with a message.
#include "core/offset_window.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/naive.hpp"
#include "core/params.hpp"
#include "core/records.hpp"

namespace tscclock::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kRingSlots = 64;  // the default τ' window's ring

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

#define SKIP_WITHOUT_AVX2()                                               \
  do {                                                                    \
    if (!offset_window_vectorized())                                      \
      GTEST_SKIP() << "this CPU has no AVX2: offset_window_pass runs its " \
                      "scalar body, which the other tests check";         \
  } while (0)

/// A window as the estimator stores it, plus the exchanges it came from.
struct Window {
  std::vector<RawExchange> raw;
  std::vector<TscCount> ta;
  std::vector<TscCount> tf;
  std::vector<TscDelta> error_counts;
  std::vector<Seconds> server_mid;

  [[nodiscard]] std::size_t size() const { return raw.size(); }
  [[nodiscard]] WindowRun run(std::size_t first, std::size_t n) const {
    return WindowRun{std::span(ta).subspan(first, n),
                     std::span(tf).subspan(first, n),
                     std::span(error_counts).subspan(first, n),
                     std::span(server_mid).subspan(first, n)};
  }
};

/// `n` packets 16 s apart at 3 GHz, the newest arriving at `tf_now`
/// (earlier ones wrap below zero if tf_now is small); RTTs up to 1 ms and
/// error counts up to the RTT, or all zero.
Window draw_window(Rng& rng, std::size_t n, TscCount tf_now,
                   bool zero_errors) {
  Window w;
  Seconds server_time = rng.uniform(0.0, 3e7);
  for (std::size_t i = 0; i < n; ++i) {
    const auto back = static_cast<TscCount>(n - 1 - i);
    const auto jitter =
        back == 0 ? TscCount{0}
                  : static_cast<TscCount>(rng.uniform(0.0, 1.5e9));
    RawExchange ex;
    ex.tf = tf_now - back * 48'000'000'000ull - jitter;
    const auto rtt = static_cast<TscDelta>(rng.uniform(3e5, 3e6));
    ex.ta = ex.tf - static_cast<TscCount>(rtt);
    ex.tb = server_time + rng.uniform(0.0, 1e-3);
    ex.te = ex.tb + rng.uniform(0.0, 1e-4);
    server_time += 16.0;
    w.raw.push_back(ex);
    w.ta.push_back(ex.ta);
    w.tf.push_back(ex.tf);
    w.error_counts.push_back(
        zero_errors ? 0
                    : static_cast<TscDelta>(
                          rng.uniform(0.0, static_cast<double>(rtt))));
    w.server_mid.push_back(server_midpoint(ex));
  }
  return w;
}

/// The pass's inputs for a window whose newest packet is `tf_now`, with
/// the clock anchored `anchor_back` counts before it.
WindowPass draw_pass(Rng& rng, TscCount tf_now, TscCount anchor_back,
                     bool aging, bool in_warmup) {
  const Params params;
  WindowPass pass;
  pass.tf_now = tf_now;
  pass.clock = CounterTimescale(tf_now - anchor_back, rng.uniform(0.0, 3e7),
                                rng.uniform(0.9999, 1.0001) / 3e9);
  pass.quality_scale = params.offset_quality *
                       (in_warmup ? params.warmup_quality_inflation : 1.0);
  pass.enable_aging = aging;
  pass.aging_rate = params.aging_rate;
  pass.gamma_local = rng.uniform(-1e-7, 1e-7);
  return pass;
}

struct PassResult {
  std::vector<double> neg_z2;
  std::vector<Seconds> terms;
  Seconds min_total = kInf;
};

/// The estimator's loop as it read over a ring of PacketRecords: the
/// oracle of the scalar body.
PassResult reference_pass(const Window& w, const WindowPass& pass) {
  PassResult r;
  const double period = pass.clock.period();
  for (std::size_t k = 0; k < w.size(); ++k) {
    const Seconds age = pass.clock.between(w.raw[k].tf, pass.tf_now);
    const Seconds point_error = delta_to_seconds(w.error_counts[k], period);
    const Seconds total_error =
        point_error + (pass.enable_aging ? pass.aging_rate * age : 0.0);
    if (total_error < r.min_total) r.min_total = total_error;
    const double z = total_error / pass.quality_scale;
    r.neg_z2.push_back(-z * z);
    r.terms.push_back(naive_offset(w.raw[k], pass.clock) -
                      pass.gamma_local * age);
  }
  return r;
}

using PassFn = Seconds (*)(const WindowRun&, const WindowPass&,
                           std::span<double>, std::span<Seconds>, Seconds);

/// `body` over the window as two runs, [0, split) and [split, size), the
/// way the estimator passes a wrapped ring.
PassResult run_pass(PassFn body, const Window& w, const WindowPass& pass,
                    std::size_t split) {
  PassResult r;
  r.neg_z2.assign(w.size(), 0.0);
  r.terms.assign(w.size(), 0.0);
  r.min_total = body(w.run(0, split), pass, r.neg_z2, r.terms, kInf);
  r.min_total = body(w.run(split, w.size() - split), pass,
                     std::span(r.neg_z2).subspan(split),
                     std::span(r.terms).subspan(split), r.min_total);
  return r;
}

/// Number of slots where `got` and `want` differ in any bit; the first few
/// are reported.
std::size_t mismatches(const PassResult& got, const PassResult& want) {
  std::size_t bad = 0;
  const auto check = [&](const char* what, std::size_t k, double g,
                         double x) {
    if (bits(g) != bits(x) && ++bad <= 5) {
      ADD_FAILURE() << what << "[" << k << "] = " << std::hexfloat << g
                    << ", want " << x;
    }
  };
  for (std::size_t k = 0; k < want.neg_z2.size(); ++k) {
    check("neg_z2", k, got.neg_z2[k], want.neg_z2[k]);
    check("terms", k, got.terms[k], want.terms[k]);
  }
  check("min_total", 0, got.min_total, want.min_total);
  return bad;
}

/// Every window length 1 … kRingSlots + 3 under every flag combination:
/// the dispatched pass against `want(window, pass)`.
template <typename Want>
void expect_every_length(std::uint64_t seed, TscCount tf_now,
                         TscCount anchor_back, PassFn body, Want want) {
  Rng rng(seed);
  for (std::size_t n = 1; n <= kRingSlots + 3; ++n) {
    for (const bool aging : {true, false}) {
      for (const bool warmup : {false, true}) {
        for (const bool zero_errors : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " aging=" << aging
                       << " warmup=" << warmup << " zero=" << zero_errors);
          const Window w = draw_window(rng, n, tf_now, zero_errors);
          const WindowPass pass =
              draw_pass(rng, tf_now, anchor_back, aging, warmup);
          ASSERT_EQ(mismatches(run_pass(body, w, pass, n), want(w, pass)),
                    0u);
        }
      }
    }
  }
}

const auto kScalar = [](const Window& w, const WindowPass& pass) {
  return run_pass(offset_window_pass_scalar, w, pass, w.size());
};

TEST(OffsetWindow, DispatchesTheAvx2BodyWhereTheCpuHasAvx2) {
#if defined(__x86_64__)
  EXPECT_EQ(offset_window_vectorized(), __builtin_cpu_supports("avx2") != 0);
#else
  EXPECT_FALSE(offset_window_vectorized());
#endif
}

TEST(OffsetWindow, ScalarBodyIsTheEstimatorsPerPacketExpressions) {
  expect_every_length(29, 0x0123'4567'89ab'cdefull, 5'000'000'000'000ull,
                      offset_window_pass_scalar, reference_pass);
}

TEST(OffsetWindow, Avx2BodyMatchesScalarOnEveryWindowLength) {
  SKIP_WITHOUT_AVX2();
  expect_every_length(30, 0x0123'4567'89ab'cdefull, 5'000'000'000'000ull,
                      offset_window_pass, kScalar);
}

TEST(OffsetWindow, Avx2BodyMatchesScalarAcrossTheCounterWrap) {
  SKIP_WITHOUT_AVX2();
  // The newest packet is 10^11 counts past 2^64, the oldest up to 3·10^12
  // before it: ages and clock reads straddle the wrap.
  expect_every_length(31, 100'000'000'000ull, 1'000'000'000'000ull,
                      offset_window_pass, kScalar);
  expect_every_length(32, 100'000'000'000ull, 1'000'000'000'000ull,
                      offset_window_pass_scalar, reference_pass);
}

TEST(OffsetWindow, Avx2BodyMatchesScalarWithAFarAnchor) {
  SKIP_WITHOUT_AVX2();
  // Counts from the anchor beyond 2^53 do not convert exactly: both bodies
  // must round them the same way, on either side of the window.
  for (const TscCount back : {(1ull << 53) + 12345, 1ull << 60,
                              0ull - (1ull << 60), 0ull - (1ull << 62)}) {
    SCOPED_TRACE(::testing::Message() << "anchor_back=" << back);
    expect_every_length(33, 0x7fff'0000'0000'0000ull, back,
                        offset_window_pass, kScalar);
  }
}

TEST(OffsetWindow, RunsSplitAnywhereMatchOneRun) {
  // The estimator's ring hands the pass two runs and carries the minimum
  // from the first into the second.
  Rng rng(34);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, kRingSlots}) {
    const Window w = draw_window(rng, n, 0x0123'4567'89ab'cdefull, false);
    const WindowPass pass =
        draw_pass(rng, 0x0123'4567'89ab'cdefull, 1ull << 40, true, false);
    const PassResult want = reference_pass(w, pass);
    for (std::size_t split = 0; split <= n; ++split) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " split=" << split);
      EXPECT_EQ(mismatches(run_pass(offset_window_pass_scalar, w, pass, split),
                           want),
                0u);
      EXPECT_EQ(mismatches(run_pass(offset_window_pass, w, pass, split), want),
                0u);
    }
  }
}

// -- The conversion alone -----------------------------------------------------

std::size_t conversion_mismatches(std::span<const std::int64_t> x) {
  std::vector<double> out(x.size());
  int64_to_double_batch(x, out);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = static_cast<double>(x[i]);
    if (bits(out[i]) != bits(want) && ++bad <= 5) {
      ADD_FAILURE() << x[i] << " converts to " << std::hexfloat << out[i]
                    << ", static_cast gives " << want;
    }
  }
  return bad;
}

TEST(OffsetWindow, ConversionMatchesStaticCastOnItsEdges) {
  SKIP_WITHOUT_AVX2();
  std::vector<std::int64_t> x = {0,
                                 1,
                                 -1,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min() + 1,
                                 std::numeric_limits<std::int64_t>::max() - 1};
  // ±2^k + d for every k and |d| <= 3: every power's rounding ties and
  // both sides of the 32-bit split.
  for (int k = 0; k < 63; ++k) {
    const std::int64_t p = std::int64_t{1} << k;
    for (std::int64_t d = -3; d <= 3; ++d) {
      x.push_back(p + d);
      x.push_back(-p + d);
    }
  }
  EXPECT_EQ(conversion_mismatches(x), 0u);
  // Every tail length: the same values from each offset into a block.
  for (std::size_t first = 1; first < 4; ++first)
    EXPECT_EQ(conversion_mismatches(std::span(x).subspan(first)), 0u);
}

TEST(OffsetWindow, ConversionMatchesStaticCastOnSeededValues) {
  SKIP_WITHOUT_AVX2();
  // Whole 64-bit words shifted right by a random count: every magnitude
  // from 0 to 2^63, both signs.
  constexpr std::size_t kSeeded = 10'000'000;
  constexpr std::size_t kChunk = 1 << 16;
  Rng rng(35);
  std::vector<std::int64_t> x(kChunk);
  std::size_t bad = 0;
  for (std::size_t done = 0; done < kSeeded; done += kChunk) {
    for (std::int64_t& v : x) {
      const auto word = static_cast<std::int64_t>(rng.engine()());
      v = word >> (rng.engine()() & 63);
    }
    bad += conversion_mismatches(x);
  }
  EXPECT_EQ(bad, 0u);
}

}  // namespace
}  // namespace tscclock::core
