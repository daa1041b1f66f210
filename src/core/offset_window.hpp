// The per-packet pass of the §5.3 offset step over its τ' window.
//
// On every arrival the offset estimate re-weights every packet of the
// window (about 62 at 16 s polling): its age Cd(Tf) − Cd(Tf_i), its total
// error E^T_i, the exponent −(E^T_i/E)² of its weight and its
// slope-corrected offset θ̂_i − γ̂_l·age_i. OffsetEstimator keeps the window
// as columns (seq, rtt, error counts, Ta, Tf and the server midpoint
// ½(Tb + Te)), and this pass reads the four it needs from one contiguous
// run of them.
//
// The pass has two bodies that return the same bits. The scalar body is
// the estimator's expressions in its order. The AVX2 body does the same
// IEEE operations in the same order four packets at a time: counter
// differences wrap as 64-bit integers do, each int64 → double conversion
// is exact up to the one rounding static_cast makes (the high and low
// halves are placed in the mantissas of 2^84 and 2^52, subtracted and
// added), and the running minimum keeps `total < min` semantics. The AVX2
// body runs when the CPU has AVX2 (checked once), the scalar one otherwise.
// This file's .cpp is built with -ffp-contract=off and no "fma" target, so
// neither body gains a fused multiply-add the other lacks.
#pragma once

#include <cstdint>
#include <span>

#include "common/time_types.hpp"

namespace tscclock::core {

/// A contiguous run of window packets, oldest first: slot i of every column
/// belongs to the same packet. All four spans have the same length.
struct WindowRun {
  std::span<const TscCount> ta;
  std::span<const TscCount> tf;
  std::span<const TscDelta> error_counts;  ///< rtt − r̂, re-assessable
  std::span<const Seconds> server_mid;     ///< ½(Tb + Te)
};

/// What the pass needs of the packet being processed and of the estimator.
struct WindowPass {
  TscCount tf_now = 0;         ///< Tf of the newest packet; ages end here
  CounterTimescale clock;      ///< the current clock C
  Seconds quality_scale = 1;   ///< E (warm-up inflated)
  bool enable_aging = true;    ///< add ε·age to the point error
  double aging_rate = 0;       ///< ε
  double gamma_local = 0;      ///< γ̂_l
};

/// For every packet i of `run`: neg_z2[i] = −(E^T_i/E)², terms[i] =
/// θ̂_i − γ̂_l·age_i. Returns the smallest of `min_total` and every E^T_i
/// (a NaN E^T_i is skipped). `neg_z2` and `terms` must be at least as long
/// as the run.
Seconds offset_window_pass(const WindowRun& run, const WindowPass& pass,
                           std::span<double> neg_z2, std::span<Seconds> terms,
                           Seconds min_total);

/// Whether offset_window_pass runs the AVX2 body on this host.
[[nodiscard]] bool offset_window_vectorized();

/// offset_window_pass's scalar body, on any host. Exposed so the
/// differential test can run it where the AVX2 body is dispatched.
Seconds offset_window_pass_scalar(const WindowRun& run, const WindowPass& pass,
                                  std::span<double> neg_z2,
                                  std::span<Seconds> terms, Seconds min_total);

/// out[i] = static_cast<double>(x[i]) through the AVX2 body's conversion
/// where offset_window_vectorized(), else through static_cast itself. For
/// the differential test of the conversion alone.
void int64_to_double_batch(std::span<const std::int64_t> x,
                           std::span<double> out);

}  // namespace tscclock::core
