// Fleet-level reduction: population metrics over a fleet's per-client clock
// errors. The fleet drive itself is MultiEstimatorSession::run(FleetTestbed&)
// (harness/session.hpp); a fleet cell attaches one FleetClientProbe to each
// client's lane and reduces the probes with reduce_fleet().
#pragma once

#include <span>

#include "common/stats.hpp"
#include "harness/session.hpp"

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

/// The fleet metrics over one probe per client, in client order.
FleetReduction reduce_fleet(std::span<const FleetClientProbe> probes);

}  // namespace tscclock::harness
