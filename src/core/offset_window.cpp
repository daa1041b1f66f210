#include "core/offset_window.hpp"

#include <cstddef>

#include "common/contracts.hpp"
#include "core/naive.hpp"

#if defined(__x86_64__)
#define TSCCLOCK_WINDOW_KERNEL 1
#include <immintrin.h>
#else
#define TSCCLOCK_WINDOW_KERNEL 0
#endif

namespace tscclock::core {

namespace {

void expect_shapes(const WindowRun& run, std::span<double> neg_z2,
                   std::span<Seconds> terms) {
  const std::size_t n = run.ta.size();
  TSC_EXPECTS(run.tf.size() == n && run.error_counts.size() == n &&
              run.server_mid.size() == n);
  TSC_EXPECTS(neg_z2.size() >= n && terms.size() >= n);
}

}  // namespace

Seconds offset_window_pass_scalar(const WindowRun& run, const WindowPass& pass,
                                  std::span<double> neg_z2,
                                  std::span<Seconds> terms,
                                  Seconds min_total) {
  expect_shapes(run, neg_z2, terms);
  const double period = pass.clock.period();
  for (std::size_t i = 0; i < run.ta.size(); ++i) {
    const Seconds age = pass.clock.between(run.tf[i], pass.tf_now);
    const Seconds point_error = delta_to_seconds(run.error_counts[i], period);
    const Seconds total_error =
        point_error + (pass.enable_aging ? pass.aging_rate * age : 0.0);
    if (total_error < min_total) min_total = total_error;

    const double z = total_error / pass.quality_scale;
    neg_z2[i] = -z * z;
    terms[i] = (host_midpoint(run.ta[i], run.tf[i], pass.clock) -
                run.server_mid[i]) -
               pass.gamma_local * age;
  }
  return min_total;
}

#if TSCCLOCK_WINDOW_KERNEL

namespace {

/// static_cast<double> of four int64 lanes. With v = hi·2^32 + lo (hi
/// signed, lo unsigned), hi + 2^31 fills the low mantissa bits of 2^84 and lo
/// those of 2^52; subtracting 2^84 + 2^63 + 2^52 from the first leaves
/// hi·2^32 − 2^52 exactly, and adding the second rounds once, to nearest,
/// as the scalar conversion does.
__attribute__((target("avx2"))) inline __m256d int64_to_double4(__m256i v) {
  const __m256i high = _mm256_xor_si256(
      _mm256_srli_epi64(v, 32), _mm256_set1_epi64x(0x4530000080000000));
  const __m256i low =
      _mm256_blend_epi32(v, _mm256_set1_epi64x(0x4330000000000000), 0xaa);
  const __m256d high_part = _mm256_sub_pd(_mm256_castsi256_pd(high),
                                          _mm256_set1_pd(0x1.00000801p+84));
  return _mm256_add_pd(high_part, _mm256_castsi256_pd(low));
}

/// The pass's broadcast operands.
struct Lanes {
  __m256i tf_now;
  __m256i anchor_count;
  __m256d period;
  __m256d anchor_time;
  __m256d quality_scale;
  __m256d aging_rate;
  __m256d gamma_local;
  bool enable_aging;
};

/// Four packets of the scalar body's loop, operation for operation.
__attribute__((target("avx2"))) inline void pass4(
    const Lanes& c, __m256i ta, __m256i tf, __m256i error_counts,
    __m256d server_mid, __m256d& total_error, __m256d& neg_z2,
    __m256d& term) {
  const __m256d age = _mm256_mul_pd(
      int64_to_double4(_mm256_sub_epi64(c.tf_now, tf)), c.period);
  const __m256d point_error =
      _mm256_mul_pd(int64_to_double4(error_counts), c.period);
  total_error = _mm256_add_pd(
      point_error, c.enable_aging ? _mm256_mul_pd(c.aging_rate, age)
                                  : _mm256_setzero_pd());

  const __m256d z = _mm256_div_pd(total_error, c.quality_scale);
  neg_z2 = _mm256_mul_pd(_mm256_xor_pd(z, _mm256_set1_pd(-0.0)), z);

  const __m256d read_ta = _mm256_add_pd(
      _mm256_mul_pd(int64_to_double4(_mm256_sub_epi64(ta, c.anchor_count)),
                    c.period),
      c.anchor_time);
  const __m256d read_tf = _mm256_add_pd(
      _mm256_mul_pd(int64_to_double4(_mm256_sub_epi64(tf, c.anchor_count)),
                    c.period),
      c.anchor_time);
  const __m256d host_mid =
      _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_add_pd(read_ta, read_tf));
  term = _mm256_sub_pd(_mm256_sub_pd(host_mid, server_mid),
                       _mm256_mul_pd(c.gamma_local, age));
}

__attribute__((target("avx2"))) Seconds offset_window_pass_avx2(
    const WindowRun& run, const WindowPass& pass, double* neg_z2,
    Seconds* terms, Seconds min_total) {
  const Lanes c{
      _mm256_set1_epi64x(static_cast<long long>(pass.tf_now)),
      _mm256_set1_epi64x(static_cast<long long>(pass.clock.anchor_count())),
      _mm256_set1_pd(pass.clock.period()),
      _mm256_set1_pd(pass.clock.anchor_time()),
      _mm256_set1_pd(pass.quality_scale),
      _mm256_set1_pd(pass.aging_rate),
      _mm256_set1_pd(pass.gamma_local),
      pass.enable_aging,
  };
  const auto* ta = reinterpret_cast<const long long*>(run.ta.data());
  const auto* tf = reinterpret_cast<const long long*>(run.tf.data());
  const auto* errors =
      reinterpret_cast<const long long*>(run.error_counts.data());
  const double* server_mid = run.server_mid.data();
  const std::size_t n = run.ta.size();

  // Per lane, min = total < min ? total : min, which _mm256_min_pd(total,
  // min) is. With period > 0 no E^T is −0, so the minimum does not depend
  // on the order of the lanes.
  __m256d min = _mm256_set1_pd(min_total);
  __m256d total, w, t;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    pass4(c, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ta + i)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tf + i)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(errors + i)),
          _mm256_loadu_pd(server_mid + i), total, w, t);
    min = _mm256_min_pd(total, min);
    _mm256_storeu_pd(neg_z2 + i, w);
    _mm256_storeu_pd(terms + i, t);
  }
  if (i < n) {
    // The last one to three packets: masked-off lanes load zeros, leave the
    // minimum alone and are not stored.
    const __m256i live =
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n - i)),
                           _mm256_setr_epi64x(0, 1, 2, 3));
    pass4(c, _mm256_maskload_epi64(ta + i, live),
          _mm256_maskload_epi64(tf + i, live),
          _mm256_maskload_epi64(errors + i, live),
          _mm256_maskload_pd(server_mid + i, live), total, w, t);
    min = _mm256_blendv_pd(min, _mm256_min_pd(total, min),
                           _mm256_castsi256_pd(live));
    _mm256_maskstore_pd(neg_z2 + i, live, w);
    _mm256_maskstore_pd(terms + i, live, t);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, min);
  Seconds result = lanes[0];
  for (int j = 1; j < 4; ++j) {
    if (lanes[j] < result) result = lanes[j];
  }
  return result;
}

__attribute__((target("avx2"))) void int64_to_double_avx2(
    const std::int64_t* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, int64_to_double4(_mm256_loadu_si256(
                                  reinterpret_cast<const __m256i*>(x + i))));
  }
  if (i == n) return;
  alignas(32) std::int64_t xs[4] = {0, 0, 0, 0};
  alignas(32) double ys[4];
  for (std::size_t j = i; j < n; ++j) xs[j - i] = x[j];
  _mm256_store_pd(ys, int64_to_double4(_mm256_load_si256(
                          reinterpret_cast<const __m256i*>(xs))));
  for (std::size_t j = i; j < n; ++j) out[j] = ys[j - i];
}

}  // namespace

#endif  // TSCCLOCK_WINDOW_KERNEL

bool offset_window_vectorized() {
#if TSCCLOCK_WINDOW_KERNEL
  static const bool vectorized = __builtin_cpu_supports("avx2");
  return vectorized;
#else
  return false;
#endif
}

Seconds offset_window_pass(const WindowRun& run, const WindowPass& pass,
                           std::span<double> neg_z2, std::span<Seconds> terms,
                           Seconds min_total) {
#if TSCCLOCK_WINDOW_KERNEL
  if (offset_window_vectorized()) {
    expect_shapes(run, neg_z2, terms);
    return offset_window_pass_avx2(run, pass, neg_z2.data(), terms.data(),
                                   min_total);
  }
#endif
  return offset_window_pass_scalar(run, pass, neg_z2, terms, min_total);
}

void int64_to_double_batch(std::span<const std::int64_t> x,
                           std::span<double> out) {
  TSC_EXPECTS(out.size() >= x.size());
#if TSCCLOCK_WINDOW_KERNEL
  if (offset_window_vectorized()) {
    int64_to_double_avx2(x.data(), out.data(), x.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = static_cast<double>(x[i]);
}

}  // namespace tscclock::core
