// Quasi-local rate estimation p̂_l(t) (paper §5.2).
//
// Local rates refine the difference clock beyond the SKM scale and give the
// offset algorithm its linear-prediction term. The estimate at packet k uses
// a window of effective width τ̄ = 5τ* stretching back from t_f,k, split into
//   near   window: ages [0, τ̄/W)
//   central window: ages [τ̄/W, τ̄ − τ̄/W)
//   far    window: ages [τ̄ − τ̄/W, τ̄ + τ̄/W)   (width 2τ̄/W, so the window
//                                               begins at t − τ̄ on average)
// The best-quality (lowest point-error) packet in each of near and far is
// paired through eq. (17). The candidate is accepted only if its expected
// quality (E_i + E_j)/((Tf_i − Tf_j)·p̄) is below γ*; otherwise the previous
// value is retained. A sanity check refuses successive estimates differing
// by more than 3·10⁻⁷ in relative terms — the hardware cannot do that.
//
// Gaps: if the stream pauses for more than τ̄/2 the window no longer defines
// a *local* rate; it is cleared and the estimate is flagged stale until a
// full window of fresh data accumulates (§6.1 "Lost Packets").
//
// The window is a two-column ColumnRing (common/column_ring.hpp): each
// packet's four stamps and its point error, 40 B a packet. Sub-window
// boundaries are found by cursors in absolute stream positions, and each
// sub-window's best packet by a min-scan of the error column alone.
#pragma once

#include <cstdint>

#include "common/column_ring.hpp"
#include "common/time_types.hpp"
#include "core/params.hpp"
#include "core/records.hpp"

namespace tscclock::core {

class LocalRateEstimator {
 public:
  explicit LocalRateEstimator(const Params& params);

  struct Result {
    bool evaluated = false;     ///< a candidate pair existed
    bool accepted = false;      ///< candidate passed the quality gate
    bool sanity_blocked = false;///< candidate rejected by the sanity check
    bool gap_reset = false;     ///< window cleared because of a data gap
  };

  /// Process a non-lost packet; `pbar` is the current global period.
  Result process(const PacketRecord& packet, Seconds point_error, double pbar);

  /// True once an estimate exists and the window is fresh (not stale).
  [[nodiscard]] bool usable() const { return has_estimate_ && !stale_; }
  [[nodiscard]] bool stale() const { return stale_; }

  /// Current quasi-local period estimate p̂_l.
  [[nodiscard]] double period() const;

  /// Residual rate error relative to the global estimate:
  /// γ̂_l = p̂_l/p̄ − 1 (the slope used by eq. (21)/(23)); 0 when unusable.
  [[nodiscard]] double residual_rate(double pbar) const;

  [[nodiscard]] std::uint64_t accepted_count() const { return accepted_; }
  [[nodiscard]] std::uint64_t sanity_count() const { return sanity_; }

 private:
  Params params_;
  /// The window, oldest first: each packet's stamps and its point error.
  enum : std::size_t { kStamps, kError };
  ColumnRing<RawExchange, Seconds> window_;
  double period_ = 0;
  bool has_estimate_ = false;
  bool stale_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t sanity_ = 0;
  /// Total push count; window_ row k's absolute stream position is
  /// total_pushed_ − window_.size() + k, stable across ring eviction and
  /// gap clears — the coordinate system of the boundary cursors below.
  std::uint64_t total_pushed_ = 0;
  /// Sub-window boundary cursors (absolute positions): each call's boundary
  /// sits near the previous call's, so a local bidirectional walk replaces
  /// the former per-call binary searches. Exact for any partitioned range,
  /// amortized O(1) as the stream advances.
  std::uint64_t near_begin_hint_ = 0;
  std::uint64_t far_begin_hint_ = 0;
  std::uint64_t far_end_hint_ = 0;
};

}  // namespace tscclock::core
