// Robust offset synchronization θ̂(t) (paper §5.3, with the §6.1 additions).
//
// Four stages per packet (evaluated at packet arrival times):
//  (i)   total error: E^T_i = E_i + ε·(Cd(t) − Cd(Tf_i)) — the RTT point
//        error inflated by the age of the packet at the residual-rate ε;
//  (ii)  quality weight: w_i = exp(−(E^T_i/E)²) over packets inside the
//        SKM-related window τ';
//  (iii) estimate: θ̂(t) = Σ w_i (θ̂_i − γ̂_l·age_i) / Σ w_i — a weighted
//        combination of per-packet naive offsets, with optional local-rate
//        linear prediction (eq. 21; γ̂_l = 0 reduces to eq. 20).
//        If even the best packet is very poor (min E^T > E** = 6E) the last
//        estimate is reused, slope-corrected when a local rate is available
//        (eq. 22/23);
//  (iv)  sanity check: successive estimates may not differ by more than
//        Es = 1 ms — orders of magnitude beyond what the hardware can do —
//        otherwise the most recent trusted value is duplicated.
//
// The window is kept as columns (seq, rtt, error counts, Ta, Tf and the
// server midpoint ½(Tb + Te), computed once at push) in a ColumnRing
// (common/column_ring.hpp), not as PacketRecords.
// Each packet runs one pass over them (core/offset_window.hpp: four packets
// at a time where the CPU has AVX2, bit-identical to its scalar body) that
// writes every window packet's exponent −(E^T_i/E)² and slope-corrected
// offset θ̂_i − γ̂_l·age_i and finds min E^T_i. Then the weights of stage
// (ii) come from one exp_batch call (common/exp.hpp), bit-identical to
// std::exp, and the sums of stage (iii) are accumulated in window order.
// The estimate is the same as with one scalar loop and one std::exp per
// packet.
//
// Gap handling (§6.1): when a long gap (> τ̄/2) has starved the window and
// quality is poor, the new naive estimate is blended with the aged previous
// estimate, weighting each by its own quality, so recovery is immediate but
// still guarded.
//
// Per-packet naive offsets are recomputed from the stored Ta/Tf with the
// *current* clock on every evaluation, so the level-shift reaction
// ("recalculate θ̂_i values … back to the shift point") and clock-continuity
// rule are honoured automatically.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/column_ring.hpp"
#include "common/time_types.hpp"
#include "core/offset_window.hpp"
#include "core/params.hpp"
#include "core/records.hpp"

namespace tscclock::core {

struct OffsetEvaluation {
  Seconds estimate = 0;   ///< reported θ̂(t) (post sanity check)
  Seconds candidate = 0;  ///< pre-sanity candidate
  bool weighted = false;  ///< stage (iii) weighted sum was used
  bool fallback = false;  ///< eq. (22)/(23) reuse of the last estimate
  bool gap_blend = false; ///< §6.1 gap recovery blend was used
  bool sanity_triggered = false;
  bool sanity_released = false;  ///< lock-out escape accepted the candidate
  Seconds min_total_error = std::numeric_limits<double>::infinity();
  double weight_sum = 0;
};

class OffsetEstimator {
 public:
  explicit OffsetEstimator(const Params& params);

  /// Evaluate at the arrival of `packet` (already point-error-assessed).
  /// `gamma_local` is γ̂_l (0 disables linear prediction); `gap_detected`
  /// reports a pre-packet gap > τ̄/2; `in_warmup` inflates E.
  OffsetEvaluation process(const PacketRecord& packet,
                           const CounterTimescale& clock, double gamma_local,
                           bool gap_detected, bool in_warmup);

  [[nodiscard]] bool has_estimate() const { return has_reported_; }
  [[nodiscard]] Seconds estimate() const;

  /// Level-shift reaction (§6.2): re-assess stored point errors against the
  /// new minimum for every window packet with seq >= from_seq.
  void reassess_errors(TscDelta new_rhat_counts, std::uint64_t from_seq);

  /// Server-change reaction: the retained packets' quality assessments
  /// refer to the previous path and do not transfer — mark them all poor
  /// (beyond E**) so fresh packets dominate while fallback continuity is
  /// preserved. `period` converts the quality scale to counts.
  void degrade_window(double period);

  [[nodiscard]] std::uint64_t sanity_count() const { return sanity_count_; }
  [[nodiscard]] std::uint64_t fallback_count() const { return fallback_count_; }
  [[nodiscard]] std::uint64_t gap_blend_count() const { return gap_blend_count_; }
  [[nodiscard]] std::uint64_t release_count() const { return release_count_; }

 private:
  Params params_;

  // The τ' window, oldest first: seq, rtt, error counts rtt − r̂
  // (re-assessable), Ta, Tf and the server midpoint ½(Tb + Te).
  enum : std::size_t { kSeq, kRtt, kErrorCounts, kTa, kTf, kServerMid };
  ColumnRing<std::uint64_t, TscDelta, TscDelta, TscCount, TscCount, Seconds>
      window_;

  // Per-packet scratch of stages (ii)-(iii), one slot per window packet:
  // the exponents −z² (then, in place, the weights) and the slope-corrected
  // offsets θ̂_i − γ̂_l·age_i.
  std::vector<double> weights_;
  std::vector<Seconds> terms_;

  // Last *measured* estimate (weighted / blend / first): basis of fallback
  // extrapolation and of the aged weight in the gap blend.
  bool has_measured_ = false;
  Seconds measured_value_ = 0;
  TscCount measured_tf_ = 0;
  Seconds measured_quality_ = 0;  ///< E^T of the estimate when made

  // Last reported estimate: basis of the sanity comparison.
  bool has_reported_ = false;
  Seconds reported_value_ = 0;

  std::uint64_t sanity_count_ = 0;
  std::uint64_t fallback_count_ = 0;
  std::uint64_t gap_blend_count_ = 0;
  std::uint64_t release_count_ = 0;
  std::size_t consecutive_sanity_ = 0;
  Seconds last_blocked_candidate_ = 0;
};

}  // namespace tscclock::core
