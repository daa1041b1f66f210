// Multi-node topology simulation: N ClientNodes polling a shared server
// pool through *correlated* path conditions, merged into one deterministic
// exchange stream.
//
// Topology model
//   * flat (default): every client polls the configured server pool over
//     its own private path — independent oscillators, timestamping, and
//     path/server draws, all from per-client identity-derived seeds.
//   * shared_congestion: one shared schedule component (identical
//     congestion windows injected into every client's EventSchedule) plus a
//     per-client private asymmetric level shift, both riding the existing
//     EventSchedule/segment-cursor machinery. The shared windows are what
//     couple the population: every client's RTT inflates over the same
//     wall-clock intervals.
//   * hierarchy: client 0 is a bridge (gPTP-style master → bridge → slave,
//     one level): it polls the real pool; clients 1..N-1 attach to the
//     bridge over a local-segment path and receive stamps from the clock
//     the bridge *serves* — true time plus the bridge's residual affine
//     error — and nothing at all before the bridge has warmed up.
//
// Seed-identity contract: client 0 uses the scenario seed verbatim; client
// k > 0 uses splitmix64(seed ^ fnv1a64("client<k>")). A 1-client fleet with
// every other knob at its default therefore reproduces the Testbed
// stream bit for bit (pinned by tests/test_fleet.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/scenario.hpp"

namespace tscclock::sim {

/// The fleet axis of a scenario. Defaults describe the single-client
/// special case: FleetConfig{} must behave exactly like a plain Testbed.
struct FleetConfig {
  std::size_t n_clients = 1;
  bool shared_congestion = false;
  bool hierarchy = false;
  /// How long the bridge synchronizes against its own upstream before it
  /// starts answering slaves (hierarchy only).
  Seconds bridge_warmup = 900.0;
};

/// SoA exchange stream with a client column: the fleet's merged equivalent
/// of ExchangeBatch. Row order is the fleet's deterministic merge order.
struct FleetBatch {
  ExchangeBatch exchanges;
  std::vector<std::uint32_t> client_id;

  [[nodiscard]] std::size_t size() const { return client_id.size(); }
  [[nodiscard]] bool empty() const { return client_id.empty(); }
  void clear() {
    exchanges.clear();
    client_id.clear();
  }
  void resize(std::size_t rows) {
    exchanges.resize(rows);
    client_id.resize(rows);
  }
};

/// N clients against one scenario, drained as a single interleaved exchange
/// stream, merged by send time (truth.ta; ties broken by client id). Each
/// client's private stream is exactly what a standalone ClientNode with the
/// same derived config would produce, so the merge is a pure reordering —
/// demultiplexing by client reconstructs the per-client streams verbatim.
class FleetTestbed {
 public:
  FleetTestbed(const ScenarioConfig& base, const FleetConfig& fleet);

  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] ClientNode& client(std::size_t k) { return *clients_[k]; }
  [[nodiscard]] const ClientNode& client(std::size_t k) const {
    return *clients_[k];
  }
  [[nodiscard]] const FleetConfig& fleet_config() const { return fleet_; }

  /// The shared congestion windows injected into every client's schedule
  /// (empty unless shared_congestion). Exposed so tests can check the
  /// cross-client RTT correlation against the actual windows.
  [[nodiscard]] const std::vector<LevelShift>& shared_congestion_windows()
      const {
    return shared_windows_;
  }

  /// Produce the next exchange in merge order; false when every client's
  /// duration is exhausted.
  bool next_into(std::uint32_t& client, Exchange& out);

  /// Fill `out` with up to `max_rows` merged exchanges; returns the row
  /// count (< max_rows only when the fleet ran dry). Row-for-row identical
  /// to the next_into() stream.
  std::size_t generate_batch(FleetBatch& out, std::size_t max_rows);

  /// Append client k's exchanges whose send time truth.ta lies below
  /// `horizon` to `out`, in generation order, from the same one-exchange
  /// lookahead the merge reads. Calls for distinct clients touch disjoint
  /// state and may run concurrently.
  void generate_until(std::size_t k, Seconds horizon, ExchangeBatch& out);

  /// Send time of client k's next exchange; +infinity once its duration
  /// is exhausted.
  [[nodiscard]] Seconds next_send_time(std::size_t k) const;

  /// Poll slots enumerated so far, summed over clients.
  [[nodiscard]] std::uint64_t polls_enumerated() const;

  /// Identity-derived per-client seed (k = 0 returns base_seed verbatim).
  static std::uint64_t client_seed(std::uint64_t base_seed, std::size_t k);

 private:
  [[nodiscard]] std::size_t best_pending() const;
  void refill(std::size_t k);

  FleetConfig fleet_;
  std::vector<LevelShift> shared_windows_;
  std::vector<std::unique_ptr<ClientNode>> clients_;

  /// One-exchange lookahead per client, feeding the k-way merge. Clients
  /// draw from independent RNG streams, so pulling ahead on one client
  /// never perturbs another's stream. Cache-line aligned: generate_until
  /// refills different clients' lookaheads from different cores.
  struct alignas(64) Lookahead {
    Exchange ex;
    bool valid = false;
  };
  std::vector<Lookahead> pending_;
};

}  // namespace tscclock::sim
