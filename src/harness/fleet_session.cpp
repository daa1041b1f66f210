#include "harness/fleet_session.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"

namespace tscclock::harness {

std::size_t FleetSession::add_client(
    const SessionConfig& config, std::unique_ptr<ClockEstimator> estimator) {
  const std::size_t k = clients_.size();
  SessionConfig lane = config;
  lane.client_id = static_cast<std::uint32_t>(k);
  clients_.push_back(
      std::make_unique<ClockSession>(lane, std::move(estimator)));
  probes_.push_back(std::make_unique<FleetClientProbe>());
  clients_.back()->add_sink(*probes_.back());
  return k;
}

void FleetSession::add_sink(std::size_t k, SampleSink& sink) {
  TSC_EXPECTS(k < clients_.size());
  clients_[k]->add_sink(sink);
}

void FleetSession::add_shared_sink(SampleSink& sink) {
  for (auto& client : clients_) client->add_sink(sink);
}

void FleetSession::run(sim::FleetTestbed& fleet) {
  TSC_EXPECTS(clients_.size() == fleet.client_count());
  demux_.resize(clients_.size());
  while (true) {
    const std::size_t n = fleet.generate_batch(batch_, kBatchChunk);
    if (n > 0) {
      // Scatter the merged chunk back into per-client SoA batches. Within a
      // chunk each client's rows stay in merge (= generation) order, so the
      // per-client streams each lane sees are exactly the standalone ones.
      for (auto& lane_batch : demux_) lane_batch.clear();
      for (std::size_t i = 0; i < n; ++i)
        demux_[batch_.client_id[i]].push_row(batch_.exchanges, i);
      for (std::size_t k = 0; k < clients_.size(); ++k) {
        if (!demux_[k].empty()) clients_[k]->process_batch(demux_[k]);
      }
    }
    if (n < kBatchChunk) break;  // fleet ran dry
  }
  for (std::size_t k = 0; k < clients_.size(); ++k)
    clients_[k]->set_polls_enumerated(fleet.client(k).polls_enumerated());
}

FleetReduction FleetSession::fleet_reduction() const {
  FleetReduction out;
  out.clients = probes_.size();
  std::vector<double> medians;
  medians.reserve(probes_.size());
  for (const auto& probe : probes_) {
    if (probe->clock_error().count() == 0) continue;
    const SeriesSummary summary = probe->clock_error().summary();
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

SessionSummary FleetSession::combined_summary() const {
  SessionSummary out;
  for (std::size_t k = 0; k < clients_.size(); ++k) {
    const SessionSummary& lane = clients_[k]->summary();
    out.exchanges += lane.exchanges;
    out.lost += lane.lost;
    out.evaluated += lane.evaluated;
    out.polls_enumerated += lane.polls_enumerated;
    if (k == 0) out.final_status = lane.final_status;
  }
  return out;
}

}  // namespace tscclock::harness
