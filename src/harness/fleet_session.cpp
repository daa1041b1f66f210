#include "harness/fleet_session.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace tscclock::harness {

FleetReduction reduce_fleet(std::span<const FleetClientProbe> probes) {
  FleetReduction out;
  out.clients = probes.size();
  std::vector<double> medians;
  medians.reserve(probes.size());
  for (const FleetClientProbe& probe : probes) {
    if (probe.clock_error().count() == 0) continue;
    const SeriesSummary summary = probe.clock_error().summary();
    medians.push_back(summary.percentiles.p50);
    out.worst_p99 =
        std::max(out.worst_p99, std::max(std::abs(summary.percentiles.p01),
                                         std::abs(summary.percentiles.p99)));
  }
  out.clients_with_data = medians.size();
  if (medians.empty()) return out;
  const auto [lo, hi] = std::minmax_element(medians.begin(), medians.end());
  out.pairwise_spread = *hi - *lo;
  double mean = 0;
  for (const double median : medians) mean += median;
  mean /= static_cast<double>(medians.size());
  double variance = 0;
  for (const double median : medians)
    variance += (median - mean) * (median - mean);
  variance /= static_cast<double>(medians.size());
  out.dispersion = std::sqrt(variance);
  return out;
}

}  // namespace tscclock::harness
