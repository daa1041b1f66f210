#include "common/allan.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace tscclock {

std::vector<AllanPoint> allan_deviation(std::span<const double> phase,
                                        double tau0,
                                        std::span<const std::size_t> m_values) {
  TSC_EXPECTS(tau0 > 0.0);
  std::vector<AllanPoint> out;
  const std::size_t n = phase.size();
  for (std::size_t m : m_values) {
    if (m == 0 || n < 2 * m + 2) continue;
    const std::size_t terms = n - 2 * m;
    double acc = 0.0;
    for (std::size_t k = 0; k < terms; ++k) {
      const double d2 = phase[k + 2 * m] - 2.0 * phase[k + m] + phase[k];
      acc += d2 * d2;
    }
    const double tau = static_cast<double>(m) * tau0;
    const double avar = acc / (2.0 * tau * tau * static_cast<double>(terms));
    out.push_back({tau, std::sqrt(avar), terms});
  }
  return out;
}

std::vector<std::size_t> log_spaced_factors(std::size_t n,
                                            std::size_t points_per_decade) {
  TSC_EXPECTS(points_per_decade > 0);
  std::vector<std::size_t> out;
  if (n < 4) return out;
  const auto max_m = static_cast<double>(n / 3);
  const double step = 1.0 / static_cast<double>(points_per_decade);
  for (double e = 0.0; std::pow(10.0, e) <= max_m; e += step) {
    const auto m = static_cast<std::size_t>(std::llround(std::pow(10.0, e)));
    if (out.empty() || m > out.back()) out.push_back(m);
  }
  return out;
}

StreamingGapAdev::StreamingGapAdev(double tau0,
                                   std::vector<std::size_t> factors,
                                   double gap_factor)
    : tau0_(tau0), factors_(std::move(factors)), gap_factor_(gap_factor) {
  TSC_EXPECTS(tau0 > 0.0);
  TSC_EXPECTS(gap_factor > 0.0);
  scales_.reserve(factors_.size());
  for (const std::size_t m : factors_) {
    TSC_EXPECTS(m > 0);
    ScaleAccumulator acc;
    acc.m = m;
    acc.ring.assign(2 * m, 0.0);
    scales_.push_back(std::move(acc));
  }
}

void StreamingGapAdev::ScaleAccumulator::add(double x) {
  const std::size_t window = 2 * m;
  if (points >= window) {
    // Same association as the buffered loop: (x − 2·x_m) + x_0.
    const double x0 = ring[points % window];
    const double xm = ring[(points - m) % window];
    const double d2 = x - 2.0 * xm + x0;
    sum_d2 += d2 * d2;
  }
  ring[points % window] = x;
  ++points;
}

void StreamingGapAdev::feed_grid_point(double x) {
  for (auto& scale : scales_) scale.add(x);
}

StreamingGapAdev::StretchResult StreamingGapAdev::current_result() const {
  StretchResult result;
  result.samples = stretch_samples_;
  result.scales.reserve(scales_.size());
  for (const auto& scale : scales_)
    result.scales.emplace_back(scale.points, scale.sum_d2);
  return result;
}

void StreamingGapAdev::finish_stretch() {
  // Strictly-longer comparison: the earliest of equally long stretches wins,
  // matching the buffered selection.
  if (stretch_samples_ > best_.samples) best_ = current_result();
  stretch_samples_ = 0;
  for (auto& scale : scales_) {
    scale.points = 0;
    scale.sum_d2 = 0.0;
  }
}

void StreamingGapAdev::add(double time, double value) {
  ++samples_;

  // A sample not strictly after the previous one (a backwards server step,
  // a repeated stamp, NaN) ends the stretch just like a gap does.
  const bool gap = stretch_samples_ > 0 &&
                   (!(time > prev_time_) ||
                    time - prev_time_ > gap_factor_ * tau0_);
  if (gap) finish_stretch();

  if (stretch_samples_ == 0) {
    // First sample of a stretch: the grid starts here, but the first grid
    // point is interpolated only once the first segment exists, exactly
    // like the buffered resampler.
    stretch_samples_ = 1;
    prev_time_ = time;
    prev_value_ = value;
    next_grid_ = time;
    return;
  }

  // Emit every grid point in (prev_time_, time] — plus the stretch-origin
  // point at next_grid_ == prev_time_ when this is the second sample. The
  // grid walks by repeated `+= tau0` and interpolates with the identical
  // clamp/lerp expressions, so the emitted series matches resample_linear
  // bit-for-bit.
  while (next_grid_ <= time) {
    const double span_t = time - prev_time_;
    const double frac =
        std::clamp((next_grid_ - prev_time_) / span_t, 0.0, 1.0);
    feed_grid_point(prev_value_ * (1.0 - frac) + value * frac);
    next_grid_ += tau0_;
  }
  ++stretch_samples_;
  prev_time_ = time;
  prev_value_ = value;
}

std::vector<AllanPoint> StreamingGapAdev::points_for(
    const StretchResult& stretch) const {
  std::vector<AllanPoint> out;
  if (stretch.samples < 3) return out;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    const std::size_t m = factors_[i];
    const std::size_t n = stretch.scales[i].first;
    if (n < 2 * m + 2) continue;
    const std::size_t terms = n - 2 * m;
    const double tau = static_cast<double>(m) * tau0_;
    const double avar = stretch.scales[i].second /
                        (2.0 * tau * tau * static_cast<double>(terms));
    out.push_back({tau, std::sqrt(avar), terms});
  }
  return out;
}

std::vector<AllanPoint> StreamingGapAdev::result() const {
  const StretchResult current = current_result();
  return points_for(current.samples > best_.samples ? current : best_);
}

std::vector<double> resample_linear(std::span<const double> times,
                                    std::span<const double> values,
                                    double tau0) {
  TSC_EXPECTS(times.size() == values.size());
  TSC_EXPECTS(times.size() >= 2);
  TSC_EXPECTS(tau0 > 0.0);
  std::vector<double> out;
  const double t0 = times.front();
  const double t_end = times.back();
  std::size_t seg = 0;  // current segment [times[seg], times[seg+1]]
  for (double t = t0; t <= t_end; t += tau0) {
    while (seg + 2 < times.size() && times[seg + 1] < t) ++seg;
    const double span_t = times[seg + 1] - times[seg];
    TSC_EXPECTS(span_t > 0.0);
    const double frac = std::clamp((t - times[seg]) / span_t, 0.0, 1.0);
    out.push_back(values[seg] * (1.0 - frac) + values[seg + 1] * frac);
  }
  return out;
}

}  // namespace tscclock
