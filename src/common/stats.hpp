// Statistics utilities used by the estimators, the benches and the tests.
//
// The estimators need two specialized pieces: a running minimum (the paper's
// r̂(t)) and an O(1)-amortized sliding-window minimum (the paper's r̂_l over
// the level-shift window Ts). The benches need percentile summaries matching
// the ones reported in the paper's figures (1/25/50/75/99 percentiles) and
// simple fixed-bin histograms (Fig. 12).
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

namespace tscclock {

/// Running minimum of a stream; `reset` supports the paper's window update
/// and level-shift reactions which recompute the minimum from recent data.
template <typename T>
class RunningMin {
 public:
  void update(T value) {
    if (!valid_ || value < min_) {
      min_ = value;
      valid_ = true;
    }
  }
  void reset() { valid_ = false; }
  void reset_to(T value) {
    min_ = value;
    valid_ = true;
  }
  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] T value() const { return min_; }

 private:
  T min_{};
  bool valid_ = false;
};

/// Sliding-window minimum over the last `capacity` samples, using the
/// standard monotonic-deque technique: push/evict are O(1) amortized.
/// Implements the paper's windowed local minimum r̂_l (§6.2).
template <typename T>
class WindowedMin {
 public:
  explicit WindowedMin(std::size_t capacity) : capacity_(capacity) {}

  void push(T value) {
    while (!monotone_.empty() && monotone_.back().value >= value)
      monotone_.pop_back();
    monotone_.push_back({next_index_, value});
    if (next_index_ >= capacity_ &&
        monotone_.front().index <= next_index_ - capacity_) {
      monotone_.pop_front();
    }
    ++next_index_;
  }

  [[nodiscard]] bool valid() const { return !monotone_.empty(); }
  [[nodiscard]] T min() const { return monotone_.front().value; }
  [[nodiscard]] std::size_t samples_seen() const { return next_index_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// True once the window has been filled at least once.
  [[nodiscard]] bool full() const { return next_index_ >= capacity_; }

  void clear() {
    monotone_.clear();
    next_index_ = 0;
  }

 private:
  struct Entry {
    std::size_t index;
    T value;
  };
  std::size_t capacity_;
  std::size_t next_index_ = 0;
  std::deque<Entry> monotone_;
};

/// Linear-interpolation percentile of a sample set; `q` in [0, 1]. With
/// the n values in ascending order s[0..n), pos = q·(n − 1), lo = ⌊pos⌋,
/// hi = min(lo + 1, n − 1) and frac = pos − lo, the result is
/// s[lo]·(1 − frac) + s[hi]·frac, bit for bit; a lone value is returned as
/// is. The span is copied once and only s[lo] and s[hi] are selected
/// (std::nth_element), never fully sorted. A −0.0/+0.0 tie at lo or hi may
/// yield either zero, as any sort may order them either way; with a NaN in
/// the input the result is unspecified, but the call stays memory-safe.
double percentile(std::span<const double> values, double q);

/// The five percentile curves the paper plots in figures 9 and 10.
struct PercentileSummary {
  double p01 = 0;
  double p25 = 0;
  double p50 = 0;  ///< median
  double p75 = 0;
  double p99 = 0;
  [[nodiscard]] double iqr() const { return p75 - p25; }
};

/// The five percentiles of one copy of `values`, each by percentile()'s
/// interpolation (bit for bit, with its ±0.0 and NaN caveats). Nested
/// selections read the ten order statistics: p50 over the whole copy,
/// then p25 and p01 in the slice below it, p75 and p99 in the slice above.
PercentileSummary percentile_summary(std::span<const double> values);

/// Full descriptive summary used by EXPERIMENTS.md and the benches.
struct SeriesSummary {
  std::size_t count = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double stddev = 0;
  PercentileSummary percentiles;
};

SeriesSummary summarize(std::span<const double> values);

/// Fixed-bin histogram over [lo, hi); out-of-range samples (±inf included)
/// are clamped into the terminal bins so mass is conserved (matches the
/// paper's Fig. 12 which shows "exactly 99% of all values"). NaN samples
/// have no bin: they are counted separately (nan_count) and excluded from
/// total() and the densities.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);
  [[nodiscard]] std::size_t bin_count(std::size_t bin) const;
  [[nodiscard]] double bin_center(std::size_t bin) const;
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  /// Binned samples only (excludes NaN rejects).
  [[nodiscard]] std::size_t total() const { return total_; }
  /// NaN samples rejected by add() — corrupt-input telemetry.
  [[nodiscard]] std::size_t nan_count() const { return nan_; }
  /// Fraction of all binned samples in `bin`.
  [[nodiscard]] double density(std::size_t bin) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t nan_ = 0;
};

/// Welford online mean/variance, used for long traces where storing every
/// sample is unnecessary.
class RunningMoments {
 public:
  void update(double value);
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
};

/// P² single-quantile estimator (Jain & Chlamtac, CACM 1985): tracks one
/// quantile of a stream with five markers — O(1) memory and O(1) per
/// sample, no buffering. Exact for the first five observations, a
/// piecewise-parabolic approximation afterwards; accuracy tests live in
/// tests/test_stats.cpp, which also compare StreamingSeriesSummary's five
/// fused estimators with this one, bit for bit.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.5 for the median.
  explicit P2Quantile(double q);

  void add(double value);
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Current estimate; exact while count() <= 5. Requires count() > 0.
  [[nodiscard]] double value() const;

 private:
  double q_;
  std::size_t count_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};    ///< marker heights q_i
  double positions_[5] = {1, 2, 3, 4, 5};  ///< actual positions n_i
  double desired_[5] = {0, 0, 0, 0, 0};    ///< desired positions n'_i
  double desired_increment_[5] = {0, 0, 0, 0, 0};
};

/// O(1)-memory replacement for summarize(): count/min/max/mean/stddev are
/// exact (the same Welford recurrence in the same order, so they match the
/// buffered reduction bit-for-bit), the five percentiles are P²
/// approximations. harness::ReducerSink keeps one per error series under
/// its Percentiles::kSketch policy.
///
/// The five estimators (q = 0.01, 0.25, 0.50, 0.75, 0.99) share one
/// marker-major state, [marker][quantile]: the desired positions step as
/// one straight loop, and one loop over the quantiles runs the rest of
/// P2Quantile::add with its expressions and its marker order. So every
/// estimate equals a P2Quantile fed the same stream, bit for bit.
class StreamingSeriesSummary {
 public:
  StreamingSeriesSummary();

  void add(double value);
  [[nodiscard]] std::size_t count() const { return moments_.count(); }
  /// Zero-initialized when no samples were consumed (mirrors the buffered
  /// reduction's empty-stream convention).
  [[nodiscard]] SeriesSummary summary() const;

 private:
  static constexpr std::size_t kMarkers = 5;
  static constexpr std::size_t kQuantiles = 5;
  using Markers = double[kMarkers][kQuantiles];

  /// One quantile's estimate, as P2Quantile::value().
  [[nodiscard]] double estimate(std::size_t k) const;

  RunningMoments moments_;
  double min_ = 0;
  double max_ = 0;
  // The extreme markers are not min_/max_: a tie with the top marker takes
  // the new value (`>=`), while std::max keeps the old one.
  Markers heights_{};           ///< marker heights q_i
  Markers positions_{};         ///< actual positions n_i
  Markers desired_{};           ///< desired positions n'_i
  Markers desired_increment_{};
};

}  // namespace tscclock
