// Fleet drive: one FleetTestbed's clients, each scored by its own
// ClockSession lane, plus fleet-level reducers over the population.
//
// The paper's clock is a per-host algorithm: a client's estimate uses only
// its own exchanges, and the fleet generator gives every client its own RNG
// streams. So run() drives the clients in parallel, in time epochs, and
// still reproduces the serial merge drive bit for bit: the stream merged by
// send time and cut into kBatchChunk-row chunks, each chunk demultiplexed
// into per-client segments and fed lane by lane. Each epoch generates every
// client's exchanges up to a horizon (parallel), merges the buffered rows
// into whole chunks (serial), runs each lane over its segments of those
// chunks (parallel), then feeds the shared sinks what the lanes emitted,
// chunk by chunk and client by client (one task, beside the next epoch's
// lanes). A 1-client FleetSession
// therefore performs exactly the calls ClockSession::run(Testbed&) performs,
// which pins the single-client fleet drive bit-identical to the classic one
// (tests/test_fleet.cpp).
#pragma once

#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
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
  FleetSession();
  ~FleetSession();
  FleetSession(const FleetSession&) = delete;
  FleetSession& operator=(const FleetSession&) = delete;

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

  /// Attach a sink to client k's lane alone. It is fed on the thread that
  /// runs the lane, so it must not be attached to any other lane.
  void add_sink(std::size_t k, SampleSink& sink);
  /// Attach one sink to every lane (fleet-wide reducers, trace dumps). It is
  /// fed by one task at a time in the serial drive's order: chunk by chunk,
  /// client by client within a chunk, in the shape the lane emitted (records
  /// or batches). It sees each epoch's output while the lanes run the next
  /// epoch, so it must not read lane state.
  void add_shared_sink(SampleSink& sink);

  /// Drain the fleet in epochs of kBatchChunk × poll_period / client_count
  /// seconds, then publish per-client poll-slot counts. The per-client steps
  /// run on `pool` when one is given, else on the calling thread; the
  /// results are identical either way. When several clients throw in one
  /// step, the lowest client's exception propagates.
  void run(sim::FleetTestbed& fleet, ThreadPool* pool = nullptr);

  [[nodiscard]] FleetReduction fleet_reduction() const;

  /// Fleet-wide counters: exchanges/lost/evaluated/polls summed over the
  /// lanes; final_status is client 0's (the reference client).
  [[nodiscard]] SessionSummary combined_summary() const;

 private:
  class SharedCapture;  // lane-side stand-in for the shared sinks

  /// Record `sink` as attached, refusing one attached before: a sink on
  /// two lanes would be fed from two threads.
  void claim(const SampleSink& sink);

  std::vector<std::unique_ptr<ClockSession>> clients_;
  std::vector<std::unique_ptr<FleetClientProbe>> probes_;
  std::vector<std::unique_ptr<SharedCapture>> captures_;
  std::vector<SampleSink*> shared_;
  std::vector<const SampleSink*> attached_;
};

}  // namespace tscclock::harness
