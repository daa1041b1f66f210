// Every algorithm constant of the paper, with the paper's defaults.
//
// Windows are nominally time intervals but are maintained as packet counts
// (nominal interval / polling period), exactly as §6.1 "Lost Packets"
// prescribes: loss rates are low, so the drift in time-scale control is
// negligible and the bookkeeping is greatly simplified.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "common/contracts.hpp"
#include "common/time_types.hpp"

namespace tscclock::core {

struct Params {
  // -- Hardware abstraction (paper §3.1) ---------------------------------
  /// Maximum host timestamping error δ; the calibration unit for all
  /// quality thresholds.
  Seconds delta = 15e-6;
  /// SKM scale τ*: the simple skew model holds below this time-scale.
  Seconds skm_scale = 1000.0;
  /// Bound on the rate error over all time-scales (0.1 PPM).
  double rate_error_bound = ppm(0.1);
  /// Achievable local rate accuracy ̺ (the Allan-minimum, ~0.01 PPM).
  double local_rate_accuracy = ppm(0.01);

  // -- Global rate synchronization p̄ (§5.2) ------------------------------
  /// Point-error acceptance threshold E* (default 20δ = 0.3 ms).
  Seconds rate_accept_error = 20 * 15e-6;

  // -- Local rate synchronization p̂_l (§5.2) -----------------------------
  /// Local rate window τ̄ (default 5τ*).
  Seconds local_rate_window = 5 * 1000.0;
  /// Number of sub-windows W (near = τ̄/W, far = 2τ̄/W).
  std::size_t local_rate_subwindows = 30;
  /// Target quality γ* for accepting a local rate candidate (0.05 PPM).
  double local_rate_quality = ppm(0.05);
  /// Sanity bound on the relative change between successive local rate
  /// estimates (3×10⁻⁷, a multiple of the 0.1 PPM hardware bound).
  double rate_sanity_threshold = 3e-7;
  /// Lock-out escape for the global-rate sanity check: after this many
  /// *consecutive* blocked candidates, the candidate is accepted — the
  /// world has persistently disagreed with the current estimate, so the
  /// estimate is the suspect. Keeps transient server faults out while
  /// making permanent lock-out (the danger §5.3 warns about) impossible.
  std::size_t rate_sanity_release_count = 8;

  // -- Offset synchronization θ̂(t) (§5.3) --------------------------------
  /// SKM-related weighting window τ' (default τ*).
  Seconds offset_window = 1000.0;
  /// Quality scale E of the Gaussian weight (default 4δ = 60 µs).
  Seconds offset_quality = 4 * 15e-6;
  /// Point-error aging rate ε applied in the total error E^T (0.02 PPM).
  double aging_rate = ppm(0.02);
  /// Extreme-quality cutoff E** as a multiple of E (default 6).
  double extreme_quality_factor = 6.0;
  /// Offset sanity threshold Es between successive estimates (1 ms).
  Seconds offset_sanity = 1e-3;
  /// Lock-out escape for the offset sanity check, in consecutive triggers;
  /// 0 = automatic (twice the offset window, so genuine multi-minute
  /// server faults stay contained but nothing can be frozen forever).
  std::size_t offset_sanity_release_count = 0;

  [[nodiscard]] std::size_t offset_sanity_release() const {
    return offset_sanity_release_count != 0 ? offset_sanity_release_count
                                            : 2 * packets(offset_window);
  }

  // -- Level shifts (§6.2) ------------------------------------------------
  /// Upward shift detection threshold, as a multiple of E (default 4).
  double shift_detect_factor = 4.0;
  /// Level-shift window Ts (default τ̄/2).
  Seconds shift_window = 5 * 1000.0 / 2;

  // -- System-level (§6.1) ------------------------------------------------
  /// Nominal polling period (windows are converted to packet counts by it).
  Seconds poll_period = 16.0;
  /// Top-level sliding window T (default 1 week), updated every T/2.
  Seconds top_window = duration::kWeek;
  /// Warm-up length Tw in accepted RTT samples.
  std::size_t warmup_samples = 64;
  /// During warm-up the offset quality scale E is inflated by this factor.
  double warmup_quality_inflation = 3.0;
  /// Gap threshold after which the local rate is deemed stale (τ̄/2).
  Seconds gap_threshold = 5 * 1000.0 / 2;

  // -- Feature toggles (ablation studies) ---------------------------------
  bool use_local_rate = true;       ///< eq. (21)/(23) linear prediction
  bool enable_offset_sanity = true; ///< stage (iv) of §5.3
  bool enable_rate_sanity = true;   ///< local-rate sanity check
  bool enable_aging = true;         ///< ε-aging in E^T
  bool enable_level_shift = true;   ///< §6.2 upward-shift detection
  bool enable_weighting = true;     ///< false: last-good-packet estimate only

  // -- Derived helpers -----------------------------------------------------
  /// Largest packet count a window may convert to: 2^53, the largest count
  /// a double holds exactly. Far beyond any run, and it keeps the
  /// double → size_t conversion in packets() defined.
  static constexpr double kMaxWindowPackets = 0x1p53;

  /// Convert a nominal window duration to a packet count (at least 1).
  [[nodiscard]] std::size_t packets(Seconds interval) const {
    TSC_EXPECTS(poll_period > 0.0);
    const double n = interval / poll_period;
    TSC_EXPECTS(n >= 0.0 && n <= kMaxWindowPackets);
    const auto count = static_cast<std::size_t>(n);
    return count > 0 ? count : 1;
  }

  /// Longest age the local-rate window spans, τ̄(1 + 1/W).
  [[nodiscard]] Seconds local_rate_span() const {
    return local_rate_window *
           (1.0 + 1.0 / static_cast<double>(local_rate_subwindows));
  }

  /// True when every window the estimators size by packets() converts to
  /// at most kMaxWindowPackets at this poll period. False for NaN.
  [[nodiscard]] bool window_counts_fit() const {
    for (const Seconds window :
         {top_window, local_rate_span(), offset_window, shift_window})
      if (!(window / poll_period <= kMaxWindowPackets)) return false;
    return true;
  }

  [[nodiscard]] Seconds extreme_quality() const {
    return extreme_quality_factor * offset_quality;
  }

  /// Defaults re-derived for a different polling period, keeping windows
  /// fixed in *time* (the paper's Fig. 9(c) sweep).
  [[nodiscard]] static Params for_poll_period(Seconds poll) {
    Params p;
    p.poll_period = poll;
    return p;
  }

  /// Validate cross-field consistency; throws ContractViolation.
  void validate() const {
    TSC_EXPECTS(delta > 0.0);
    TSC_EXPECTS(skm_scale > 0.0);
    TSC_EXPECTS(rate_accept_error > 0.0);
    TSC_EXPECTS(local_rate_window > 0.0);
    TSC_EXPECTS(local_rate_subwindows >= 3);
    TSC_EXPECTS(local_rate_quality > 0.0);
    TSC_EXPECTS(offset_window > 0.0);
    TSC_EXPECTS(offset_quality > 0.0);
    TSC_EXPECTS(extreme_quality_factor > 1.0);
    TSC_EXPECTS(offset_sanity > 0.0);
    TSC_EXPECTS(rate_sanity_release_count >= 2);
    TSC_EXPECTS(poll_period > 0.0);
    TSC_EXPECTS(window_counts_fit());
    TSC_EXPECTS(top_window >= local_rate_window);
    TSC_EXPECTS(warmup_samples >= 2);
  }
};

}  // namespace tscclock::core
