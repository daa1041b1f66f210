#include "core/offset.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/exp.hpp"
#include "core/naive.hpp"

namespace tscclock::core {

OffsetEstimator::OffsetEstimator(const Params& params)
    : params_(params), window_(params.packets(params.offset_window)) {
  params.validate();
}

Seconds OffsetEstimator::estimate() const {
  TSC_EXPECTS(has_reported_);
  return reported_value_;
}

void OffsetEstimator::reassess_errors(TscDelta new_rhat_counts,
                                      std::uint64_t from_seq) {
  for (std::size_t k = 0; k < window_.size(); ++k) {
    auto& rec = window_[k];
    if (rec.seq >= from_seq) {
      rec.error_counts = rec.rtt - new_rhat_counts;
      if (rec.error_counts < 0) rec.error_counts = 0;
    }
  }
}

void OffsetEstimator::degrade_window(double period) {
  TSC_EXPECTS(period > 0.0);
  const auto poor = static_cast<TscDelta>(
      2.0 * params_.extreme_quality() / period);
  for (std::size_t k = 0; k < window_.size(); ++k)
    window_[k].error_counts = std::max(window_[k].error_counts, poor);
}

OffsetEvaluation OffsetEstimator::process(const PacketRecord& packet,
                                          const CounterTimescale& clock,
                                          double gamma_local,
                                          bool gap_detected, bool in_warmup) {
  OffsetEvaluation eval;
  window_.push_back(packet);

  const double period = clock.period();
  const Seconds quality_scale =
      params_.offset_quality *
      (in_warmup ? params_.warmup_quality_inflation : 1.0);

  // Stages (i)-(iii): total errors, weights, weighted combination. The
  // exponent and the slope-corrected offset of every window packet first,
  // then all the weights in one exp_batch, then the sums in window order.
  const std::size_t n = window_.size();
  weights_.resize(n);
  terms_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& rec = window_[k];
    const Seconds age = clock.between(rec.stamps.tf, packet.stamps.tf);
    const Seconds point_error =
        delta_to_seconds(rec.error_counts, period);
    const Seconds total_error =
        point_error + (params_.enable_aging ? params_.aging_rate * age : 0.0);
    if (total_error < eval.min_total_error) eval.min_total_error = total_error;

    const double z = total_error / quality_scale;
    weights_[k] = -z * z;
    terms_[k] = naive_offset(rec.stamps, clock) - gamma_local * age;
  }
  exp_batch(weights_, weights_);
  double weight_sum = 0;
  double weighted_offset = 0;
  for (std::size_t k = 0; k < n; ++k) {
    weight_sum += weights_[k];
    weighted_offset += weights_[k] * terms_[k];
  }
  eval.weight_sum = weight_sum;

  const bool quality_ok =
      eval.min_total_error <= params_.extreme_quality() && weight_sum > 0.0;

  const Seconds theta_new = naive_offset(packet.stamps, clock);

  if (!has_measured_) {
    // First estimate: directly from the first packet (§6.1 warm-up).
    eval.candidate = theta_new;
    eval.weighted = true;
    measured_value_ = eval.candidate;
    measured_tf_ = packet.stamps.tf;
    measured_quality_ = delta_to_seconds(packet.error_counts, period);
    has_measured_ = true;
    reported_value_ = eval.candidate;
    has_reported_ = true;
    eval.estimate = eval.candidate;
    return eval;
  }

  const Seconds age_since_measured =
      clock.between(measured_tf_, packet.stamps.tf);
  const Seconds predicted =
      measured_value_ - gamma_local * age_since_measured;  // eq. (23)/(22)

  if (params_.enable_weighting && quality_ok) {
    eval.candidate = weighted_offset / weight_sum;
    eval.weighted = true;
  } else if (gap_detected) {
    // §6.1: after a long gap with a poor window, blend the fresh naive
    // estimate with the aged previous estimate, each weighted by quality.
    const Seconds e_new = delta_to_seconds(packet.error_counts, period);
    const Seconds e_old =
        measured_quality_ + params_.aging_rate * age_since_measured;
    const double zn = e_new / quality_scale;
    const double zo = e_old / quality_scale;
    const double wn = std::exp(-zn * zn);
    const double wo = std::exp(-zo * zo);
    eval.candidate = (wn + wo > 0.0)
                         ? (wn * theta_new + wo * predicted) / (wn + wo)
                         : (e_new < e_old ? theta_new : predicted);
    eval.gap_blend = true;
    ++gap_blend_count_;
  } else {
    eval.candidate = predicted;
    eval.fallback = true;
    ++fallback_count_;
  }

  // Stage (iv): sanity check against the last reported value. Not applied
  // to the gap blend, whose own weighting is the guard (otherwise a long
  // outage could lock the estimate out permanently), nor during warm-up,
  // where the period estimate legitimately moves by tens of PPM and the
  // clock's offset moves with it (at a 256 s poll the first p̂ correction
  // shifts C by ~13 ms — freezing on that would lock the clock out forever).
  // Lock-out escape: if every candidate for a sustained stretch (twice the
  // window by default) has been rejected AND the rejected candidates agree
  // with each other, the frozen value is the suspect, not the data —
  // accept and move on. The stability requirement matters: while a fault
  // washes out of the window the candidates still *move* packet-to-packet
  // (each clean arrival shifts the weighted mixture), so the escape waits;
  // a genuine "world moved" situation produces stable candidates. This
  // makes the §5.3 warning about "lock-out, where an old estimate is
  // duplicated ad infinitum" structurally impossible while still containing
  // faults of any duration.
  //
  // The check is also skipped on gap packets: across a long gap the clock
  // drifted unobserved, so insisting on a ≤ Es move would freeze on the
  // stale level (the blend/weighted recovery is the guard there).
  Seconds result = eval.candidate;
  if (params_.enable_offset_sanity && !eval.gap_blend && !gap_detected &&
      !in_warmup &&
      std::fabs(eval.candidate - reported_value_) > params_.offset_sanity) {
    const bool stable =
        std::fabs(eval.candidate - last_blocked_candidate_) <=
        params_.offset_sanity;
    last_blocked_candidate_ = eval.candidate;
    consecutive_sanity_ = stable ? consecutive_sanity_ + 1 : 0;
    if (consecutive_sanity_ < params_.offset_sanity_release()) {
      result = reported_value_;  // duplicate the most recent trusted value
      eval.sanity_triggered = true;
      ++sanity_count_;
    } else {
      eval.sanity_released = true;
      ++release_count_;
      consecutive_sanity_ = 0;
    }
  } else {
    consecutive_sanity_ = 0;
  }

  if (!eval.sanity_triggered && (eval.weighted || eval.gap_blend)) {
    measured_value_ = result;
    measured_tf_ = packet.stamps.tf;
    measured_quality_ = eval.min_total_error;
  }
  reported_value_ = result;
  has_reported_ = true;
  eval.estimate = result;
  return eval;
}

}  // namespace tscclock::core
