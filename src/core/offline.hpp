// Offline (two-sided) offset post-processing.
//
// §5.3: "for many applications, post processing of data would allow both
// future and past values to be used to improve estimates. In particular
// this makes good performance immediately following long periods of
// congestion or sequential packet loss much easier to achieve."
//
// This module implements that smoother: given a complete trace, the offset
// at each packet is estimated from a *symmetric* window of naive per-packet
// offsets, each weighted by its RTT point error aged by |distance in time|
// — the two-sided analogue of the on-line stage (i)-(iii). Rate is fixed to
// the robust whole-trace estimate (the paper does the same for its off-line
// analyses), so there is no warm-up and no causality constraint.
#pragma once

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/time_types.hpp"
#include "core/params.hpp"
#include "core/records.hpp"

namespace tscclock::core {

struct OfflineResult {
  /// Smoothed offset estimate θ̂(t_i) for every input exchange, in input
  /// order.
  std::vector<Seconds> offsets;
  /// The fixed timescale used for all conversions (anchored at the first
  /// packet, robust whole-trace period).
  CounterTimescale timescale;
  double period = 0;        ///< whole-trace robust p̄
  TscDelta rhat_counts = 0; ///< whole-trace minimum RTT
  std::size_t poor_windows = 0;  ///< packets where even the best total
                                 ///< error exceeded E** (estimate falls
                                 ///< back to the nearest good packet)
};

/// Packets per block of smooth_offsets' window pass: enough that a block's
/// windows (about τ'/poll packets each) dwarf the cost of handing it to a
/// worker, few enough that a month-scale trace makes dozens of blocks.
inline constexpr std::size_t kSmoothBlock = 4096;

/// Smooth a complete trace. The exchanges must be in send order.
/// Throws ContractViolation for traces with fewer than two packets.
///
/// With a `pool`, the per-packet windows run in fixed-size blocks on it;
/// each packet's arithmetic is the same as without one, so the result is
/// bit-identical at every worker count.
OfflineResult smooth_offsets(std::span<const RawExchange> trace,
                             const Params& params, double nominal_period,
                             ThreadPool* pool = nullptr);

}  // namespace tscclock::core
