#include "harness/replay.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "core/naive.hpp"
#include "harness/estimator_spec.hpp"

namespace tscclock::harness {

// -- TraceRecorder ---------------------------------------------------------

TraceRecorder::TraceRecorder(const SessionConfig& config) : config_(config) {}

void TraceRecorder::observe(const sim::ExchangeBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ReplaySample& sample = trace_.samples.emplace_back(
        observe_row(config_, server_changes_, batch, i));
    ++trace_.exchanges;
    if (sample.lost) ++trace_.lost;
  }
}

// -- OfflineSmootherEstimator ----------------------------------------------

OfflineSmootherEstimator::OfflineSmootherEstimator(const core::Params& params,
                                                   double nominal_period,
                                                   Split split,
                                                   ThreadPool* pool)
    : params_(params),
      nominal_period_(nominal_period),
      split_(split),
      pool_(pool) {
  TSC_EXPECTS(nominal_period > 0.0);
}

namespace {

/// Minimum of `values` over a window [begin, end) that slides right one
/// index at a time: a deque of indices whose values rise front to back, so
/// the front is the minimum and each index is pushed and popped once.
class SlidingMin {
 public:
  explicit SlidingMin(std::span<const TscDelta> values) : values_(values) {}

  /// Start over on [begin, end).
  void reset(std::size_t begin, std::size_t end) {
    indices_.clear();
    begin_ = end_ = begin;
    while (end_ < end) push_end();
  }

  /// Move both edges one index right.
  void slide() {
    if (indices_.front() == begin_) indices_.pop_front();
    ++begin_;
    push_end();
  }

  [[nodiscard]] TscDelta min() const { return values_[indices_.front()]; }

 private:
  void push_end() {
    while (!indices_.empty() && values_[indices_.back()] >= values_[end_])
      indices_.pop_back();
    indices_.push_back(end_++);
  }

  std::span<const TscDelta> values_;
  std::deque<std::size_t> indices_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Offline level-shift cut points for `split=shifts`: indices where the
/// windowed minimum RTT changes by more than the §6.2 detection threshold
/// (shift_detect_factor × E, converted to counts via the nominal period —
/// the sub-PPM period error is negligible against a 4E ≈ 240 µs threshold).
/// Two-sided by construction: a cut at k compares min RTT over the window
/// before k against the window after it, so detection has no warm-up and no
/// congestion/shift ambiguity horizon. Cuts closer than one window to each
/// other or to either trace edge are suppressed (smooth_offsets needs real
/// segments, and a short segment would carry a meaningless whole-segment
/// rate). Both window minima slide with the index and are rebuilt after a
/// cut jumps it.
std::vector<std::size_t> shift_cut_points(
    const std::vector<core::RawExchange>& raws, const core::Params& params,
    double nominal_period) {
  const std::size_t window =
      std::max<std::size_t>(params.packets(params.shift_window), 2);
  const std::size_t n = raws.size();
  if (n < 2 * window) return {};
  const double threshold_counts =
      params.shift_detect_factor * params.offset_quality / nominal_period;

  std::vector<TscDelta> rtts(n);
  for (std::size_t i = 0; i < n; ++i) rtts[i] = raws[i].rtt_counts();
  SlidingMin left_min(rtts);
  SlidingMin right_min(rtts);

  std::vector<std::size_t> cuts;
  std::size_t i = window;
  left_min.reset(0, window);
  right_min.reset(window, 2 * window);
  for (;;) {
    const TscDelta left = left_min.min();
    const double separation = static_cast<double>(right_min.min() - left);
    if (std::abs(separation) <= threshold_counts) {
      if (++i + window > n) break;
      left_min.slide();
      right_min.slide();
      continue;
    }
    // Place the cut on the first clear post-shift packet. Upward shifts
    // (delays rise) trigger only once the right window holds no pre-shift
    // packet, i.e. right at the boundary; downward shifts trigger as soon as
    // one post-shift packet enters the right window, so scan forward for it.
    std::size_t cut = i;
    if (separation < 0) {
      for (std::size_t j = i; j < i + window; ++j) {
        if (static_cast<double>(rtts[j] - left) < -threshold_counts) {
          cut = j;
          break;
        }
      }
    }
    if (cut >= window && cut + window <= n &&
        (cuts.empty() || cut - cuts.back() >= window)) {
      cuts.push_back(cut);
    }
    i = cut + window;
    if (i + window > n) break;
    left_min.reset(i - window, i);
    right_min.reset(i, i + window);
  }
  return cuts;
}

}  // namespace

ReplayOutput OfflineSmootherEstimator::process_trace(
    std::span<const ReplaySample> samples) {
  std::vector<core::RawExchange> raws;
  raws.reserve(samples.size());
  for (const auto& sample : samples) {
    if (!sample.lost) raws.push_back(sample.raw);
  }
  TSC_EXPECTS(raws.size() >= 2);

  const std::vector<std::size_t> cuts =
      split_ == Split::kShifts
          ? shift_cut_points(raws, params_, nominal_period_)
          : std::vector<std::size_t>{};
  segments_ = cuts.size() + 1;

  std::vector<Seconds> point_errors;
  point_errors.reserve(raws.size());
  if (cuts.empty()) {
    result_ = core::smooth_offsets(raws, params_, nominal_period_, pool_);
    for (const auto& raw : raws) {
      point_errors.push_back(delta_to_seconds(
          raw.rtt_counts() - result_.rhat_counts, result_.period));
    }
  } else {
    // Smooth each segment independently (own whole-segment rate and minimum
    // RTT), then translate every segment's offsets onto the first segment's
    // timescale: θ̂ is C(t) − Ca(t), so the translation is the pointwise
    // difference of the two uncorrected clocks at the packet's Tf —
    // tracking-error semantics are preserved exactly. Point errors use the
    // segment's own r̂/p̄ (re-basing the minimum is the point of the split).
    core::OfflineResult merged;
    std::size_t begin = 0;
    for (std::size_t s = 0; s <= cuts.size(); ++s) {
      const std::size_t end = s < cuts.size() ? cuts[s] : raws.size();
      const auto segment = core::smooth_offsets(
          std::span<const core::RawExchange>(raws).subspan(begin, end - begin),
          params_, nominal_period_, pool_);
      if (s == 0) {
        merged.timescale = segment.timescale;
        merged.period = segment.period;
        merged.rhat_counts = segment.rhat_counts;
      }
      for (std::size_t k = 0; k < segment.offsets.size(); ++k) {
        const TscCount tf = raws[begin + k].tf;
        merged.offsets.push_back(segment.offsets[k] +
                                 (merged.timescale.read(tf) -
                                  segment.timescale.read(tf)));
        point_errors.push_back(delta_to_seconds(
            raws[begin + k].rtt_counts() - segment.rhat_counts,
            segment.period));
      }
      merged.poor_windows += segment.poor_windows;
      begin = end;
    }
    result_ = std::move(merged);
  }

  ReplayOutput output;
  output.offsets = result_.offsets;
  output.timescale = result_.timescale;
  output.period = result_.period;
  output.point_errors = std::move(point_errors);
  output.status.packets_processed = raws.size();
  output.status.warmed_up = true;  // no warm-up: the rate is whole-trace
  output.status.period = result_.period;
  output.status.offset = result_.offsets.back();
  output.status.min_rtt =
      delta_to_seconds(result_.rhat_counts, result_.period);
  // The §5.3 poor-window fallback is the offline analogue of the online
  // estimator's best-packet fallback — report it on the same counter; the
  // split cuts ride the shift counter so the status surfaces show how often
  // the variant actually split.
  output.status.offset_fallbacks = result_.poor_windows;
  output.status.upshifts = cuts.size();
  return output;
}

// -- ReplaySession ---------------------------------------------------------

ReplaySession::ReplaySession(const SessionConfig& config,
                             std::unique_ptr<ReplayEstimator> estimator)
    : config_(config), estimator_(std::move(estimator)) {
  TSC_EXPECTS(estimator_ != nullptr);
}

void ReplaySession::add_sink(SampleSink& sink) { sinks_.add(sink); }

const SessionSummary& ReplaySession::run(const ReplayTrace& trace) {
  summary_ = SessionSummary{};
  summary_.exchanges = trace.exchanges;
  summary_.lost = trace.lost;
  summary_.polls_enumerated = trace.polls_enumerated;

  // A ReplaySession replays exactly one client's clock: a trace that
  // interleaves several fleet clients would hand the estimator a stream
  // mixing unrelated oscillators. Demand a homogeneous trace up front.
  for (const auto& sample : trace.samples) {
    if (sample.client_id != trace.samples.front().client_id)
      throw std::invalid_argument(
          "ReplaySession: trace mixes client_id " +
          std::to_string(trace.samples.front().client_id) + " and " +
          std::to_string(sample.client_id) +
          " — replay one client's trace at a time (demultiplex the fleet "
          "trace by client before replaying)");
  }

  // Too few packets for any whole-trace estimate: emit at most the lost/
  // unevaluated skeleton so the cell reads "n/a", never FAILED.
  const bool scorable = trace.arrived() >= 2;
  ReplayOutput output;
  if (scorable) {
    output = estimator_->process_trace(trace.samples);
    TSC_EXPECTS(output.offsets.size() == trace.arrived());
    TSC_EXPECTS(output.point_errors.empty() ||
                output.point_errors.size() == trace.arrived());
    summary_.final_status = output.status;
  }

  const bool records = sinks_.wants_records();
  std::size_t k = 0;  // running index over non-lost samples
  for (const ReplaySample& sample : trace.samples) {
    SampleRecord record;
    if (!sample.lost && scorable) {
      record.report.offset_estimate = output.offsets[k];
      record.report.naive_offset =
          core::naive_offset(sample.raw, output.timescale);
      if (!output.point_errors.empty())
        record.report.point_error = output.point_errors[k];
      static_cast<Score&>(record) = score_exchange(
          sample, record.report, output.timescale.read(sample.raw.tf),
          std::nullopt, trace.ground_truth);
      record.warmed_up = true;
      record.period = output.period;
      ++k;
    }
    if (record.evaluated) ++summary_.evaluated;
    if (!records) {
      if (record.evaluated)
        sinks_.push(sample.raw.tb, record.abs_clock_error,
                    record.offset_error);
    } else if (record.evaluated || config_.emit_unevaluated) {
      static_cast<ReplaySample&>(record) = sample;
      sinks_.deliver(record);
    }
  }
  sinks_.flush();
  return summary_;
}

// -- Registry entries (replay families) ------------------------------------

void detail::register_builtin_replay_estimators(EstimatorRegistry& registry) {
  EstimatorRegistry::Family offline;
  offline.name = "offline";
  offline.order = 40;
  offline.replay = true;
  offline.description =
      "offline two-sided smoother (§5.3, NON-CAUSAL replay: scored post-hoc "
      "over the recorded trace using future packets)";
  offline.tunables = {
      TunableSpec::choice(
          "split", "none",
          "cut the trace at detected level shifts and smooth each segment "
          "with its own whole-segment rate/minimum",
          {"none", "shifts"}),
  };
  offline.make_replay = [](const ResolvedSpec& spec,
                           const core::Params& params, double nominal_period,
                           ThreadPool* pool) {
    const auto split = spec.get_choice("split") == "shifts"
                           ? OfflineSmootherEstimator::Split::kShifts
                           : OfflineSmootherEstimator::Split::kNone;
    return std::make_unique<OfflineSmootherEstimator>(params, nominal_period,
                                                      split, pool);
  };
  registry.register_family(std::move(offline));
}

}  // namespace tscclock::harness
