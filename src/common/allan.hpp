// Allan variance / deviation analysis of clock offset (phase) series.
//
// The paper (§3.1, Fig. 3) characterizes the oscillator by the Allan
// deviation of the time-scale dependent rate y_tau(t) — "essentially a Haar
// wavelet spectral analysis". Given offset samples x_k = θ(k·tau0), the
// overlapping Allan variance at τ = m·tau0 is
//
//   AVAR(τ) = 1 / (2 τ² (N − 2m)) · Σ_{k=0}^{N−2m−1} (x_{k+2m} − 2 x_{k+m} + x_k)²
//
// and the Allan deviation is its square root: the typical size of the rate
// variations at scale τ (in the same dimensionless units as skew).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tscclock {

struct AllanPoint {
  double tau = 0;        ///< averaging time-scale [s]
  double deviation = 0;  ///< Allan deviation (dimensionless rate error)
  std::size_t terms = 0; ///< number of second differences averaged
};

/// Overlapping Allan deviation of a regularly sampled phase series.
/// `phase` holds offset samples [s] at spacing `tau0` [s]; `m_values` are the
/// averaging factors (τ = m·tau0). m values with fewer than 2 usable second
/// differences are skipped.
std::vector<AllanPoint> allan_deviation(std::span<const double> phase,
                                        double tau0,
                                        std::span<const std::size_t> m_values);

/// Log-spaced averaging factors suitable for a series of length `n`:
/// `points_per_decade` values per decade from 1 up to n/3.
std::vector<std::size_t> log_spaced_factors(std::size_t n,
                                            std::size_t points_per_decade);

/// Resample an irregularly sampled series onto a regular grid of spacing
/// `tau0` by linear interpolation, for feeding into allan_deviation.
/// `times` must be strictly increasing and the same length as `values`.
std::vector<double> resample_linear(std::span<const double> times,
                                    std::span<const double> values,
                                    double tau0);

/// Streaming equivalent of the buffered gap-aware ADEV pipeline
///
///     split the (t, x) series at gaps > gap_factor·tau0 and before every
///     sample whose time is not strictly after its predecessor's,
///     take the longest stretch (earliest wins ties, by raw sample count),
///     resample_linear() it onto the tau0 grid,
///     allan_deviation() at the given averaging factors
///
/// computed incrementally: each stretch keeps a ring of the last 2m grid
/// points per factor plus a running sum of squared second differences, so
/// memory is O(max m) instead of O(trace length). Every arithmetic step
/// (the `t += tau0` grid walk, the lerp, the d² accumulation order)
/// replicates the buffered pipeline exactly, so results are bit-identical —
/// tests/test_allan.cpp pins this.
class StreamingGapAdev {
 public:
  StreamingGapAdev(double tau0, std::vector<std::size_t> factors,
                   double gap_factor = 4.0);

  /// Consume one sample. A time that is not strictly greater than the
  /// previous sample's (`!(time > prev)`, which also catches NaN) ends the
  /// current stretch, exactly like a gap over gap_factor·tau0.
  void add(double time, double value);

  [[nodiscard]] std::size_t samples() const { return samples_; }

  /// ADEV points of the longest stretch so far (the in-progress stretch
  /// counts as if it ended here). Factors whose stretch is too short
  /// (fewer than 2m+2 resampled points) are omitted, exactly like
  /// allan_deviation().
  [[nodiscard]] std::vector<AllanPoint> result() const;

 private:
  /// Per-factor accumulator over one stretch's resampled series.
  struct ScaleAccumulator {
    std::size_t m = 0;
    std::vector<double> ring;  ///< last 2m resampled values
    std::size_t points = 0;    ///< resampled points consumed
    double sum_d2 = 0;         ///< Σ (x_{k+2m} − 2·x_{k+m} + x_k)²

    void add(double x);
  };

  /// Finalized per-factor numbers of a completed stretch (no rings needed).
  struct StretchResult {
    std::size_t samples = 0;  ///< raw (pre-resampling) sample count
    std::vector<std::pair<std::size_t, double>> scales;  ///< {points, sum_d2}
  };

  void feed_grid_point(double x);
  void finish_stretch();
  [[nodiscard]] StretchResult current_result() const;
  [[nodiscard]] std::vector<AllanPoint> points_for(
      const StretchResult& stretch) const;

  double tau0_;
  std::vector<std::size_t> factors_;
  double gap_factor_;

  std::size_t samples_ = 0;  ///< total samples across all stretches

  // Current stretch state.
  std::size_t stretch_samples_ = 0;
  double prev_time_ = 0;
  double prev_value_ = 0;
  double next_grid_ = 0;  ///< walks t0, t0+tau0, ... exactly like resample
  std::vector<ScaleAccumulator> scales_;

  StretchResult best_;  ///< longest finished stretch (earliest wins ties)
};

}  // namespace tscclock
