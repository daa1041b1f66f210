// The naive estimators of paper §4 — both the building blocks of the robust
// algorithms and the baselines that figures 5 and 6 contrast against.
#pragma once

#include "common/time_types.hpp"
#include "core/records.hpp"

namespace tscclock::core {

/// Naive period estimates between exchanges j (earlier) and i (later):
///   forward  (eq. 17):  p̂→ = (Tb_i − Tb_j) / (Ta_i − Ta_j)
///   backward        :   p̂← = (Te_i − Te_j) / (Tf_i − Tf_j)
/// and their average, the form used throughout §5.2.
struct NaiveRate {
  double forward = 0;
  double backward = 0;
  double combined = 0;
};

NaiveRate naive_rate(const RawExchange& earlier, const RawExchange& later);

/// The two halves of eq. (19): the host midpoint ½(C(Ta) + C(Tf)), which
/// moves with the clock, and the server midpoint ½(Tb + Te), which does not
/// (the offset window stores it once per packet).
inline Seconds host_midpoint(TscCount ta, TscCount tf,
                             const CounterTimescale& clock) {
  return 0.5 * (clock.read(ta) + clock.read(tf));
}
inline Seconds server_midpoint(const RawExchange& exchange) {
  return 0.5 * (exchange.tb + exchange.te);
}

/// Naive per-packet offset (eq. 19):
///   θ̂_i = ½(C(Ta_i) + C(Tf_i)) − ½(Tb_i + Te_i)
/// which implicitly assumes a symmetric path (Δ = 0).
inline Seconds naive_offset(const RawExchange& exchange,
                            const CounterTimescale& clock) {
  return host_midpoint(exchange.ta, exchange.tf, clock) -
         server_midpoint(exchange);
}

}  // namespace tscclock::core
