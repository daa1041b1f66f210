#include "common/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/contracts.hpp"

namespace tscclock {

namespace {

/// The quantiles of a PercentileSummary, ascending.
constexpr std::array<double, 5> kSummaryQuantiles{0.01, 0.25, 0.50, 0.75,
                                                  0.99};

/// Where percentile() reads the `q` percentile of n values: the order
/// statistics lo and hi, and the interpolation weight of hi.
struct Rank {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

Rank rank_of(std::size_t n, double q) {
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

/// percentile() at each of the ascending quantiles `qs`, from one copy of
/// `values`. The middle quantile's lo is selected over the whole copy;
/// each quantile below it is then selected in the slice under its upper
/// neighbour's lo, each one above it in the slice over its lower
/// neighbour's lo. A lo that coincides with its neighbour's is already in
/// place. Every selected lo then holds its sorted value, and the values
/// between two selected positions are bounded by theirs, so s[lo + 1] is
/// the smallest value between lo and the next selected position.
template <std::size_t N>
std::array<double, N> select_percentiles(std::span<const double> values,
                                         const std::array<double, N>& qs) {
  const std::size_t n = values.size();
  std::vector<double> v(values.begin(), values.end());
  const auto at = [&v](std::size_t k) {
    return v.begin() + static_cast<std::ptrdiff_t>(k);
  };
  std::array<Rank, N> ranks{};
  for (std::size_t i = 0; i < N; ++i) ranks[i] = rank_of(n, qs[i]);

  constexpr std::size_t mid = N / 2;
  std::nth_element(v.begin(), at(ranks[mid].lo), v.end());
  for (std::size_t i = mid; i-- > 0;) {
    if (ranks[i].lo < ranks[i + 1].lo)
      std::nth_element(v.begin(), at(ranks[i].lo), at(ranks[i + 1].lo));
  }
  for (std::size_t i = mid + 1; i < N; ++i) {
    if (ranks[i].lo > ranks[i - 1].lo)
      std::nth_element(at(ranks[i - 1].lo + 1), at(ranks[i].lo), v.end());
  }

  std::array<double, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    const Rank& r = ranks[i];
    std::size_t next = n;  // the next selected position above lo
    for (std::size_t j = i + 1; j < N; ++j) {
      if (ranks[j].lo > r.lo) {
        next = ranks[j].lo;
        break;
      }
    }
    double hi = v[r.lo];  // hi == lo at the top rank
    if (r.hi == next) {
      hi = v[next];
    } else if (r.hi > r.lo) {
      hi = *std::min_element(at(r.hi), at(next));
    }
    out[i] = v[r.lo] * (1.0 - r.frac) + hi * r.frac;
  }
  return out;
}

}  // namespace

double percentile(std::span<const double> values, double q) {
  TSC_EXPECTS(!values.empty());
  TSC_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values.size() == 1) return values.front();
  return select_percentiles<1>(values, {q})[0];
}

PercentileSummary percentile_summary(std::span<const double> values) {
  TSC_EXPECTS(!values.empty());
  const auto p = select_percentiles(values, kSummaryQuantiles);
  PercentileSummary s;
  s.p01 = p[0];
  s.p25 = p[1];
  s.p50 = p[2];
  s.p75 = p[3];
  s.p99 = p[4];
  return s;
}

SeriesSummary summarize(std::span<const double> values) {
  TSC_EXPECTS(!values.empty());
  SeriesSummary s;
  s.count = values.size();
  s.percentiles = percentile_summary(values);
  RunningMoments moments;
  double mn = values.front();
  double mx = values.front();
  for (double v : values) {
    moments.update(v);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  s.min = mn;
  s.max = mx;
  s.mean = moments.mean();
  s.stddev = moments.stddev();
  return s;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  TSC_EXPECTS(hi > lo);
  TSC_EXPECTS(bins > 0);
}

void Histogram::add(double value) {
  // NaN has no bin (floor(NaN) is NaN, and casting it to an integer is
  // undefined behaviour) — count it separately so callers can surface
  // corrupt inputs instead of crediting them to an arbitrary bin.
  if (std::isnan(value)) {
    ++nan_;
    return;
  }
  // Clamp in floating point BEFORE the integer cast: casting a double
  // outside the target's range (±inf, or a huge finite value) is undefined
  // behaviour too. ±inf and out-of-range values land in the terminal bins,
  // conserving mass as documented.
  const double pos = std::floor((value - lo_) / width_);
  const double last = static_cast<double>(counts_.size() - 1);
  const auto bin = static_cast<std::size_t>(std::clamp(pos, 0.0, last));
  ++counts_[bin];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t bin) const {
  TSC_EXPECTS(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  TSC_EXPECTS(bin < counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::density(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(bin_count(bin)) / static_cast<double>(total_);
}

void RunningMoments::update(double value) {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningMoments::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

P2Quantile::P2Quantile(double q) : q_(q) {
  TSC_EXPECTS(q > 0.0 && q < 1.0);
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q;
  desired_[2] = 1.0 + 4.0 * q;
  desired_[3] = 3.0 + 2.0 * q;
  desired_[4] = 5.0;
  desired_increment_[0] = 0.0;
  desired_increment_[1] = q / 2.0;
  desired_increment_[2] = q;
  desired_increment_[3] = (1.0 + q) / 2.0;
  desired_increment_[4] = 1.0;
}

void P2Quantile::add(double value) {
  if (count_ < 5) {
    heights_[count_++] = value;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }

  // Locate the marker cell and clamp the extremes.
  std::size_t cell;
  if (value < heights_[0]) {
    heights_[0] = value;
    cell = 0;
  } else if (value >= heights_[4]) {
    heights_[4] = value;
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && value >= heights_[cell + 1]) ++cell;
  }

  for (std::size_t i = cell + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += desired_increment_[i];
  ++count_;

  // Nudge interior markers toward their desired positions; parabolic (P²)
  // height update when it stays monotone, linear otherwise.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 1.0 ? 1.0 : -1.0;
      const double span = positions_[i + 1] - positions_[i - 1];
      const double parabolic =
          heights_[i] +
          sign / span *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else if (sign > 0.0) {
        heights_[i] += (heights_[i + 1] - heights_[i]) / above;
      } else {
        heights_[i] -= (heights_[i] - heights_[i - 1]) / below;
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  TSC_EXPECTS(count_ > 0);
  if (count_ <= 5) {
    // Exact interpolated percentile of the few stored samples (they are only
    // sorted once the fifth arrives).
    double sorted[5];
    std::copy(heights_, heights_ + count_, sorted);
    std::sort(sorted, sorted + count_);
    return percentile(std::span<const double>(sorted, count_), q_);
  }
  return heights_[2];
}

StreamingSeriesSummary::StreamingSeriesSummary() {
  for (std::size_t k = 0; k < kQuantiles; ++k) {
    const double q = kSummaryQuantiles[k];
    for (std::size_t i = 0; i < kMarkers; ++i)
      positions_[i][k] = static_cast<double>(i + 1);
    desired_[0][k] = 1.0;
    desired_[1][k] = 1.0 + 2.0 * q;
    desired_[2][k] = 1.0 + 4.0 * q;
    desired_[3][k] = 3.0 + 2.0 * q;
    desired_[4][k] = 5.0;
    desired_increment_[0][k] = 0.0;
    desired_increment_[1][k] = q / 2.0;
    desired_increment_[2][k] = q;
    desired_increment_[3][k] = (1.0 + q) / 2.0;
    desired_increment_[4][k] = 1.0;
  }
}

void StreamingSeriesSummary::add(double value) {
  const std::size_t seen = moments_.count();
  if (seen == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  moments_.update(value);

  // Every estimator stores the first five samples as they arrive and sorts
  // them once the fifth is in, as P2Quantile::add does.
  if (seen < kMarkers) {
    for (std::size_t k = 0; k < kQuantiles; ++k) heights_[seen][k] = value;
    if (seen + 1 == kMarkers) {
      double first[kMarkers]{};
      for (std::size_t i = 0; i < kMarkers; ++i) first[i] = heights_[i][0];
      std::sort(first, first + kMarkers);
      for (std::size_t i = 0; i < kMarkers; ++i)
        for (std::size_t k = 0; k < kQuantiles; ++k) heights_[i][k] = first[i];
    }
    return;
  }

  for (std::size_t i = 0; i < kMarkers; ++i) {
    for (std::size_t k = 0; k < kQuantiles; ++k)
      desired_[i][k] += desired_increment_[i][k];
  }

  // Per quantile, P2Quantile::add's steps with its expressions: locate the
  // marker cell and clamp the extremes, move the markers above the cell,
  // then nudge markers 1..3 in order toward their desired positions.
  for (std::size_t k = 0; k < kQuantiles; ++k) {
    std::size_t cell = 0;
    if (value < heights_[0][k]) {
      heights_[0][k] = value;
    } else if (value >= heights_[4][k]) {
      heights_[4][k] = value;
      cell = 3;
    } else {
      while (cell < 3 && value >= heights_[cell + 1][k]) ++cell;
    }
    for (std::size_t i = 1; i < kMarkers; ++i)
      positions_[i][k] += i > cell ? 1.0 : 0.0;

    for (std::size_t i = 1; i <= 3; ++i) {
      const double d = desired_[i][k] - positions_[i][k];
      const double below = positions_[i][k] - positions_[i - 1][k];
      const double above = positions_[i + 1][k] - positions_[i][k];
      if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
        double& h = heights_[i][k];
        const double h_below = heights_[i - 1][k];
        const double h_above = heights_[i + 1][k];
        const double sign = d >= 1.0 ? 1.0 : -1.0;
        const double span = positions_[i + 1][k] - positions_[i - 1][k];
        const double parabolic =
            h + sign / span *
                    ((below + sign) * (h_above - h) / above +
                     (above - sign) * (h - h_below) / below);
        if (h_below < parabolic && parabolic < h_above) {
          h = parabolic;
        } else if (sign > 0.0) {
          h += (h_above - h) / above;
        } else {
          h -= (h - h_below) / below;
        }
        positions_[i][k] += sign;
      }
    }
  }
}

double StreamingSeriesSummary::estimate(std::size_t k) const {
  const std::size_t n = moments_.count();
  if (n <= kMarkers) {
    double sorted[kMarkers]{};
    for (std::size_t i = 0; i < n; ++i) sorted[i] = heights_[i][k];
    std::sort(sorted, sorted + n);
    return percentile(std::span<const double>(sorted, n), kSummaryQuantiles[k]);
  }
  return heights_[2][k];
}

SeriesSummary StreamingSeriesSummary::summary() const {
  SeriesSummary s;
  if (moments_.count() == 0) return s;
  s.count = moments_.count();
  s.min = min_;
  s.max = max_;
  s.mean = moments_.mean();
  s.stddev = moments_.stddev();
  s.percentiles.p01 = estimate(0);
  s.percentiles.p25 = estimate(1);
  s.percentiles.p50 = estimate(2);
  s.percentiles.p75 = estimate(3);
  s.percentiles.p99 = estimate(4);
  return s;
}

}  // namespace tscclock
