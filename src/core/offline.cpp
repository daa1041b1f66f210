#include "core/offline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "core/naive.hpp"

namespace tscclock::core {

namespace {

/// Whole-trace robust rate: the §5.2 estimator collapsed to its essence —
/// pair the best-quality packet of the first quarter with the best of the
/// last quarter, restricted to point errors below E*.
double whole_trace_period(std::span<const RawExchange> trace,
                          TscDelta rhat_counts, const Params& params,
                          double nominal_period) {
  const auto best_in = [&](std::size_t begin, std::size_t end) {
    std::size_t best = begin;
    for (std::size_t k = begin; k < end; ++k)
      if (trace[k].rtt_counts() < trace[best].rtt_counts()) best = k;
    return best;
  };
  const std::size_t n = trace.size();
  const std::size_t quarter = std::max<std::size_t>(1, n / 4);
  const std::size_t j = best_in(0, quarter);
  const std::size_t i = best_in(n - quarter, n);
  if (i == j || counter_delta(trace[i].ta, trace[j].ta) <= 0)
    return nominal_period;

  // Degenerate pair: with the two best packets sharing the same Tf the
  // baseline is empty (and the naive backward rate divides by zero), so
  // there is no rate information — keep the configured nominal. Guarding
  // span > 0 also rejects the quality ratio below ever becoming inf/NaN,
  // which would *pass* the > comparison by failing it and silently accept
  // a garbage candidate rate.
  const Seconds span = delta_to_seconds(
      counter_delta(trace[i].tf, trace[j].tf), nominal_period);
  if (!(span > 0.0)) return nominal_period;

  // Accept the pair only if its quality is meaningful; otherwise keep the
  // configured nominal (the caller's trace is then too short/noisy).
  const double candidate = naive_rate(trace[j], trace[i]).combined;
  const Seconds ei = delta_to_seconds(
      trace[i].rtt_counts() - rhat_counts, nominal_period);
  const Seconds ej = delta_to_seconds(
      trace[j].rtt_counts() - rhat_counts, nominal_period);
  const Seconds total = ei + ej;
  if (!std::isfinite(total) || !std::isfinite(candidate) ||
      total / span > params.rate_error_bound) {
    return nominal_period;
  }
  return candidate;
}

}  // namespace

OfflineResult smooth_offsets(std::span<const RawExchange> trace,
                             const Params& params, double nominal_period,
                             ThreadPool* pool) {
  params.validate();
  TSC_EXPECTS(trace.size() >= 2);
  TSC_EXPECTS(nominal_period > 0.0);

  OfflineResult result;

  // Whole-trace minimum RTT (one global level; traces spanning known level
  // shifts should be split at the shift points by the caller).
  TscDelta rhat = trace.front().rtt_counts();
  for (const auto& ex : trace) rhat = std::min(rhat, ex.rtt_counts());
  result.rhat_counts = rhat;

  result.period = whole_trace_period(trace, rhat, params, nominal_period);

  // Anchor C at the first packet's server midpoint (same convention as the
  // on-line clock) — the constant cancels in all downstream differences.
  const Seconds first_mid = 0.5 * (trace.front().tb + trace.front().te);
  const Seconds first_half_rtt =
      0.5 * delta_to_seconds(trace.front().rtt_counts(), result.period);
  result.timescale = CounterTimescale(trace.front().tf,
                                      first_mid + first_half_rtt,
                                      result.period);

  // Precompute naive offsets and point errors.
  const std::size_t n = trace.size();
  std::vector<Seconds> naive(n);
  std::vector<Seconds> point_error(n);
  for (std::size_t i = 0; i < n; ++i) {
    naive[i] = naive_offset(trace[i], result.timescale);
    point_error[i] = delta_to_seconds(trace[i].rtt_counts() - rhat,
                                      result.period);
  }

  // Two-sided weighted smoothing: for packet k use every packet within
  // ± τ'/2 (the same total window width as the on-line estimator), with
  // total error E_i + ε·|t_i − t_k|. The window's left edge `lo` follows a
  // recurrence over k that stays exact when Tf is non-monotone, so a serial
  // pass records it at the start of every block; each block then resumes
  // the recurrence from there, on the pool or not.
  result.offsets.resize(n);
  const Seconds half_window = params.offset_window / 2;
  const CounterTimescale& timescale = result.timescale;
  const auto advance_lo = [&](std::size_t lo, std::size_t k) {
    while (lo < k &&
           timescale.between(trace[lo].tf, trace[k].tf) > half_window)
      ++lo;
    return lo;
  };
  const std::size_t blocks = (n + kSmoothBlock - 1) / kSmoothBlock;
  std::vector<std::size_t> block_lo(blocks);
  std::vector<std::size_t> block_poor(blocks);
  for (std::size_t k = 0, lo = 0; k < n; ++k) {
    lo = advance_lo(lo, k);
    if (k % kSmoothBlock == 0) block_lo[k / kSmoothBlock] = lo;
  }

  const auto smooth_block = [&](std::size_t block) {
    const std::size_t end = std::min(n, (block + 1) * kSmoothBlock);
    std::size_t lo = block_lo[block];
    for (std::size_t k = block * kSmoothBlock; k < end; ++k) {
      lo = advance_lo(lo, k);
      double weight_sum = 0;
      double weighted = 0;
      Seconds best_total = std::numeric_limits<double>::infinity();
      std::size_t best_idx = k;
      for (std::size_t i = lo; i < n; ++i) {
        const Seconds distance =
            std::fabs(timescale.between(trace[i].tf, trace[k].tf));
        if (i > k && distance > half_window) break;
        const Seconds total =
            point_error[i] + (params.enable_aging
                                  ? params.aging_rate * distance
                                  : 0.0);
        if (total < best_total) {
          best_total = total;
          best_idx = i;
        }
        const double z = total / params.offset_quality;
        const double w = std::exp(-z * z);
        weight_sum += w;
        weighted += w * naive[i];
      }
      if (best_total <= params.extreme_quality() && weight_sum > 0.0) {
        result.offsets[k] = weighted / weight_sum;
      } else {
        // Whole window poor: fall back to the best packet in it (two-sided,
        // so this is already the nearest good information in either
        // direction).
        result.offsets[k] = naive[best_idx];
        ++block_poor[block];
      }
    }
  };
  if (pool != nullptr && blocks > 1) {
    parallel_for(*pool, blocks, smooth_block);
  } else {
    for (std::size_t block = 0; block < blocks; ++block) smooth_block(block);
  }
  for (const std::size_t poor : block_poor) result.poor_windows += poor;
  return result;
}

}  // namespace tscclock::core
