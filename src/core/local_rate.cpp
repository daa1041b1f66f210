#include "core/local_rate.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "core/naive.hpp"

namespace tscclock::core {

LocalRateEstimator::LocalRateEstimator(const Params& params)
    : params_(params),
      // Window spans ages up to τ̄(1 + 1/W); keep a little slack for poll
      // jitter so the far sub-window is never starved by rounding.
      window_(params.packets(params.local_rate_span()) + 2) {
  params.validate();
}

double LocalRateEstimator::period() const {
  TSC_EXPECTS(has_estimate_);
  return period_;
}

double LocalRateEstimator::residual_rate(double pbar) const {
  TSC_EXPECTS(pbar > 0.0);
  if (!usable()) return 0.0;
  return period_ / pbar - 1.0;
}

LocalRateEstimator::Result LocalRateEstimator::process(
    const PacketRecord& packet, Seconds point_error, double pbar) {
  TSC_EXPECTS(pbar > 0.0);
  Result result;

  // Gap detection: a pause longer than τ̄/2 makes the window stale.
  if (!window_.empty()) {
    const Seconds gap = delta_to_seconds(
        counter_delta(packet.stamps.tf,
                      window_.at<kStamps>(window_.size() - 1).tf),
        pbar);
    if (gap > params_.gap_threshold) {
      window_.clear();
      stale_ = true;
      result.gap_reset = true;
    }
  }
  window_.push(packet.stamps, point_error);
  ++total_pushed_;

  const double tau_bar = params_.local_rate_window;
  const double sub = tau_bar / static_cast<double>(params_.local_rate_subwindows);

  // Age (via the difference clock at p̄) of the oldest packet decides whether
  // a full window is available; until then a stale flag cannot clear.
  const Seconds span = delta_to_seconds(
      counter_delta(packet.stamps.tf, window_.at<kStamps>(0).tf), pbar);
  if (span >= tau_bar - sub) stale_ = false;

  // Select the best-quality packet in the near and far sub-windows. Because
  // t_f is strictly increasing over the window and p̄ > 0 is fixed for this
  // call, age(k) is non-increasing in k, so each sub-window is a contiguous
  // index range. Its boundaries move forward roughly one step per exchange,
  // so instead of re-searching from scratch each call, persistent cursors
  // (absolute stream positions) walk bidirectionally from last call's
  // boundary to this call's — the walk evaluates the very same age predicate
  // a binary search would and lands on the exact partition point, amortized
  // O(1) per exchange. The min-scans then touch only the (few) in-range
  // entries in ascending order, so strict-less / earliest-index tie-breaking
  // — and therefore the selected pair — is bit-identical to a full scan.
  const auto age_of = [&](const RawExchange& e) {
    return delta_to_seconds(counter_delta(packet.stamps.tf, e.tf), pbar);
  };
  const std::uint64_t first_abs = total_pushed_ - window_.size();
  const auto stamps_at = [&](std::uint64_t abs) -> const RawExchange& {
    return window_.at<kStamps>(static_cast<std::size_t>(abs - first_abs));
  };
  // Partition point of `pred` over absolute range [lo, hi], found by walking
  // from `hint` (clamped): forward while pred holds, backward while the
  // element before fails it. Exact because pred is true on a prefix.
  const auto seek = [&](std::uint64_t lo, std::uint64_t hi, std::uint64_t hint,
                        auto&& pred) {
    std::uint64_t b = std::clamp(hint, lo, hi);
    while (b < hi && pred(stamps_at(b))) ++b;
    while (b > lo && !pred(stamps_at(b - 1))) --b;
    return b;
  };
  // First index whose age drops below `sub`: start of the near sub-window,
  // which extends to the end of the window (the current packet has age 0).
  const std::uint64_t near_begin_abs =
      seek(first_abs, total_pushed_, near_begin_hint_,
           [&](const RawExchange& e) { return age_of(e) >= sub; });
  // The far sub-window [τ̄ − sub, τ̄ + sub) sits at lower indices; restricting
  // the search to [first, near_begin) also reproduces a straight scan's
  // else-if, which never classifies a near packet as far.
  const std::uint64_t far_begin_abs =
      seek(first_abs, near_begin_abs, far_begin_hint_,
           [&](const RawExchange& e) { return age_of(e) >= tau_bar + sub; });
  const std::uint64_t far_end_abs =
      seek(far_begin_abs, near_begin_abs, far_end_hint_,
           [&](const RawExchange& e) { return age_of(e) >= tau_bar - sub; });
  near_begin_hint_ = near_begin_abs;
  far_begin_hint_ = far_begin_abs;
  far_end_hint_ = far_end_abs;
  if (near_begin_abs == total_pushed_ || far_begin_abs == far_end_abs)
    return result;

  // Min-scan the error column in ascending order with a strict-less
  // comparison, so the earliest of equal errors wins; then read only the
  // two winners' stamps.
  const auto best_of = [&](std::uint64_t lo_abs, std::uint64_t hi_abs) {
    const auto lo = static_cast<std::size_t>(lo_abs - first_abs);
    const auto hi = static_cast<std::size_t>(hi_abs - first_abs);
    std::size_t best = lo;
    for (std::size_t k = lo + 1; k < hi; ++k)
      if (window_.at<kError>(k) < window_.at<kError>(best)) best = k;
    return best;
  };
  const std::size_t i = best_of(near_begin_abs, total_pushed_);
  const std::size_t j = best_of(far_begin_abs, far_end_abs);
  const RawExchange& near = window_.at<kStamps>(i);
  const RawExchange& far = window_.at<kStamps>(j);
  if (counter_delta(near.ta, far.ta) <= 0) return result;
  result.evaluated = true;

  const Seconds pair_span =
      delta_to_seconds(counter_delta(near.tf, far.tf), pbar);
  const double quality =
      (window_.at<kError>(i) + window_.at<kError>(j)) / pair_span;
  if (quality > params_.local_rate_quality) return result;  // keep previous

  const double candidate = naive_rate(far, near).combined;

  // Sanity check: the hardware bounds successive changes (§5.2).
  if (params_.enable_rate_sanity && has_estimate_) {
    const double rel = std::fabs(candidate / period_ - 1.0);
    if (rel > params_.rate_sanity_threshold) {
      ++sanity_;
      result.sanity_blocked = true;
      return result;  // duplicate previous value
    }
  }

  period_ = candidate;
  has_estimate_ = true;
  ++accepted_;
  result.accepted = true;
  return result;
}

}  // namespace tscclock::core
