// Fleet drive: one FleetTestbed's merged exchange stream fanned into one
// ClockSession per client, plus fleet-level reducers over the population.
//
// The session demultiplexes the merged FleetBatch chunk by chunk into
// per-client SoA batches and feeds each client's ClockSession through the
// existing batched lanes — a 1-client FleetSession therefore performs
// exactly the calls ClockSession::run(Testbed&) performs, with the identical
// chunking (kBatchChunk), which is what pins the single-client fleet drive
// bit-identical to the classic one (tests/test_fleet.cpp).
#pragma once

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "harness/session.hpp"
#include "sim/fleet.hpp"

namespace tscclock::harness {

/// Population-level reduction over a fleet's per-client clock errors. All
/// three metrics are computed from per-client streaming P² sketches, so the
/// fleet drive stays O(1) memory per client.
struct FleetReduction {
  std::size_t clients = 0;            ///< fleet size
  std::size_t clients_with_data = 0;  ///< clients with ≥1 evaluated sample
  /// Population offset dispersion: stddev across clients of the per-client
  /// median absolute clock error. Zero until ≥2 clients have data.
  double dispersion = 0;
  /// Worst-client p99: max over clients of max(|p01|, |p99|) of the
  /// client's clock error — the fleet's tail client.
  double worst_p99 = 0;
  /// Pairwise spread: max − min across clients of the per-client median
  /// clock error (the widest disagreement between any two clients).
  double pairwise_spread = 0;
};

/// Per-client accumulator behind the fleet metrics: a streaming summary of
/// the client's evaluated clock errors. Batch-aware so it never forces a
/// lane off the record-free fast path.
class FleetClientProbe final : public SampleSink {
 public:
  void on_sample(const SampleRecord& record) override {
    if (record.evaluated) clock_error_.add(record.abs_clock_error);
  }
  [[nodiscard]] bool wants_batch() const override { return true; }
  void on_batch(const SampleBatch& batch) override {
    for (const double error : batch.abs_clock_error) clock_error_.add(error);
  }
  [[nodiscard]] const StreamingSeriesSummary& clock_error() const {
    return clock_error_;
  }

 private:
  StreamingSeriesSummary clock_error_;
};

/// Drives N ClockSessions (one per fleet client) from one FleetTestbed.
/// Lane k scores client k; each lane carries its own estimator instance and
/// sinks, exactly like a MultiEstimatorSession lane — plus one built-in
/// FleetClientProbe per lane feeding fleet_reduction().
class FleetSession {
 public:
  /// Add the lane for the next client (lanes must be added in client order;
  /// the lane's config.client_id is overwritten with its position). Returns
  /// the client index.
  std::size_t add_client(const SessionConfig& config,
                         std::unique_ptr<ClockEstimator> estimator);

  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] ClockSession& client(std::size_t k) { return *clients_[k]; }
  [[nodiscard]] const ClockSession& client(std::size_t k) const {
    return *clients_[k];
  }

  /// Attach a sink to client k's lane (after its built-in probe).
  void add_sink(std::size_t k, SampleSink& sink);
  /// Attach one sink to every lane (fleet-wide reducers, trace dumps).
  void add_shared_sink(SampleSink& sink);

  /// Drain the fleet: pull merged kBatchChunk-row chunks, demultiplex by
  /// client, feed each client's batched lane, then publish per-client
  /// poll-slot counts.
  void run(sim::FleetTestbed& fleet);

  [[nodiscard]] FleetReduction fleet_reduction() const;

  /// Fleet-wide counters: exchanges/lost/evaluated/polls summed over the
  /// lanes; final_status is client 0's (the reference client).
  [[nodiscard]] SessionSummary combined_summary() const;

 private:
  std::vector<std::unique_ptr<ClockSession>> clients_;
  std::vector<std::unique_ptr<FleetClientProbe>> probes_;
  sim::FleetBatch batch_;
  std::vector<sim::ExchangeBatch> demux_;
};

}  // namespace tscclock::harness
