// Testbed composition: host oscillator + driver timestamping + network path
// + stratum-1 server + DAG reference monitor (paper §2, Fig. 1).
//
// A Testbed plays out the NTP client/server exchange for each poll:
//
//   host: Ta = TSC read            (just before send)
//     --- forward path d→ = d + q→ --->
//   server: Tb stamp, processing d↑, Te stamp
//     <--- backward path d← = d + q← ---
//   host: Tf = TSC read            (after full arrival + interrupt latency)
//   DAG:  Tg                       (passive tap, corrected to full arrival)
//
// Timestamps Tb/Te really travel through the 48-byte NTP wire format
// (encode → decode round trip, ~233 ps quantization) so the wire substrate
// is exercised on the main data path, exactly as in a real deployment.
//
// Three server presets reproduce Table 2 (ServerLoc / ServerInt / ServerExt)
// and two temperature environments reproduce §3.1 (laboratory/machine room).
//
// The per-client machinery lives in ClientNode so a fleet (sim/fleet.hpp)
// can own N of them; Testbed is another name for a ClientNode built with its
// defaults (client 0, no bridge) — which is what makes the 1-client fleet
// reproduce the Testbed stream bit for bit by construction.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time_types.hpp"
#include "sim/dag.hpp"
#include "sim/events.hpp"
#include "sim/oscillator.hpp"
#include "sim/path.hpp"
#include "sim/server.hpp"
#include "sim/timestamping.hpp"

namespace tscclock::sim {

enum class ServerKind { kLoc, kInt, kExt };
enum class Environment { kLaboratory, kMachineRoom };

std::string to_string(ServerKind kind);
std::string to_string(Environment environment);

struct ScenarioConfig {
  ServerKind server = ServerKind::kInt;
  Environment environment = Environment::kMachineRoom;
  Seconds poll_period = 16.0;
  Seconds poll_jitter = 0.25;  ///< uniform ± jitter on each poll instant
  Seconds duration = duration::kDay;
  std::uint64_t seed = 42;
  EventSchedule events;
  /// Apply the NTP wire format's ~233 ps timestamp truncation to Tb/Te. The
  /// hot path computes it algebraically (wire::quantize_timestamp_at_epoch,
  /// provably identical to the packet encode→decode round trip).
  bool use_wire_format = true;
  /// Diagnostic: additionally run every exchange's stamps through the real
  /// 48-byte packet encode→decode round trip and assert the algebraic
  /// quantization matches bit for bit. Results are identical either way, so
  /// this flag must never enter a run fingerprint; it only costs time.
  bool check_wire = false;

  /// Mid-trace server changes (the paper's campaign switched ServerInt →
  /// ServerLoc → ServerExt, §6.1). Must be in increasing time order.
  struct ServerSwitch {
    Seconds time = 0;
    ServerKind kind = ServerKind::kLoc;
  };
  std::vector<ServerSwitch> server_switches;

  /// Optional component overrides; when unset the preset for
  /// (server, environment) applies.
  std::optional<PathConfig> path_override;
  std::optional<ServerConfig> server_override;
  std::optional<OscillatorConfig> oscillator_override;
  std::optional<TimestampingConfig> timestamping_override;

  /// Table 2 path/server preset for a server kind.
  static PathConfig path_preset(ServerKind kind);
  static ServerConfig server_preset(ServerKind kind);
};

/// True event times and delay decomposition for one exchange (ground truth).
struct ExchangeTruth {
  Seconds ta = 0;  ///< wire departure from host
  Seconds tb = 0;  ///< arrival at server
  Seconds te = 0;  ///< wire departure from server
  Seconds tf = 0;  ///< full arrival at host
  Seconds d_forward = 0;
  Seconds d_server = 0;
  Seconds d_backward = 0;
  [[nodiscard]] Seconds rtt() const {
    return d_forward + d_server + d_backward;
  }
};

/// One completed (or lost) NTP exchange as seen by the host and the monitor.
struct Exchange {
  std::uint64_t index = 0;  ///< poll sequence number
  bool lost = false;        ///< no reply reached the host

  // What the synchronization algorithm sees:
  TscCount ta_counts = 0;  ///< host TSC stamp before send
  TscCount tf_counts = 0;  ///< host TSC stamp after arrival
  Seconds tb_stamp = 0;    ///< server receive stamp (from the packet)
  Seconds te_stamp = 0;    ///< server transmit stamp (from the packet)

  /// Tf with the side-mode/outlier latency removed — the paper's
  /// "corrected Tf,i" (§2.4), used by the characterization analyses
  /// (Fig. 3) but NOT by the synchronization algorithms.
  TscCount tf_counts_corrected = 0;

  /// Transport-level identity of the server that answered (unique per
  /// attachment; changes exactly at configured server switches).
  std::uint32_t server_id = 0;
  std::uint8_t server_stratum = 0;

  // What the reference monitor sees:
  bool ref_available = false;
  Seconds tg = 0;  ///< DAG corrected stamp of the returning packet

  ExchangeTruth truth;
};

/// Struct-of-arrays exchange stream: one column per Exchange field. The
/// generators store each Exchange they produce as one row (store()), and the
/// sessions read the columns directly, row by row. Row i across all
/// columns reconstructs exactly the Exchange next() would have produced
/// (materialize(); columns a loss left unproduced hold the same zeros as a
/// default Exchange field).
struct ExchangeBatch {
  std::vector<std::uint64_t> index;
  std::vector<std::uint8_t> lost;
  std::vector<TscCount> ta_counts;
  std::vector<TscCount> tf_counts;
  std::vector<Seconds> tb_stamp;
  std::vector<Seconds> te_stamp;
  std::vector<TscCount> tf_counts_corrected;
  std::vector<std::uint32_t> server_id;
  std::vector<std::uint8_t> server_stratum;
  std::vector<std::uint8_t> ref_available;
  std::vector<Seconds> tg;
  // Ground-truth columns (ExchangeTruth).
  std::vector<Seconds> truth_ta;
  std::vector<Seconds> truth_tb;
  std::vector<Seconds> truth_te;
  std::vector<Seconds> truth_tf;
  std::vector<Seconds> d_forward;
  std::vector<Seconds> d_server;
  std::vector<Seconds> d_backward;

  [[nodiscard]] std::size_t size() const { return index.size(); }
  [[nodiscard]] bool empty() const { return index.empty(); }
  void clear();
  /// Set every column to `rows` elements (new tail value-initialized).
  /// generate_batch() sizes the batch up front and stores rows by index —
  /// cheaper than 18 push_backs per row — then trims to the produced count.
  void resize(std::size_t rows);

  /// Reconstruct row i as the Exchange the scalar stream would have
  /// produced (the tests' check that generate_batch reproduces next();
  /// the sessions read rows through harness::observe_row).
  void materialize(std::size_t i, Exchange& out) const;

  /// Inverse of materialize: write `in` into row i (the fleet merge path,
  /// which interleaves per-client scalar streams into SoA columns).
  void store(std::size_t i, const Exchange& in);

  /// Append row i of `src` to this batch (the fleet demux path: one merged
  /// stream scattered back into per-client column batches).
  void push_row(const ExchangeBatch& src, std::size_t i);

  /// Append `in` as a new last row.
  void push(const Exchange& in);

 private:
  /// Apply `fn` to every column vector.
  template <typename Fn>
  void for_each_column(Fn&& fn) {
    fn(index), fn(lost), fn(ta_counts), fn(tf_counts), fn(tb_stamp),
        fn(te_stamp), fn(tf_counts_corrected), fn(server_id),
        fn(server_stratum), fn(ref_available), fn(tg), fn(truth_ta),
        fn(truth_tb), fn(truth_te), fn(truth_tf), fn(d_forward), fn(d_server),
        fn(d_backward);
  }
};

/// Deterministic model of the clock a bridge client *serves* to downstream
/// slaves (gPTP-style master → bridge → slave, one level of hierarchy). The
/// bridge's served stamps carry a residual affine error against true time —
/// the offset + skew its own synchronization left behind — and the bridge
/// answers nothing until it has warmed up against its own upstream pool
/// (`start`). Affine-by-construction keeps the model order-independent:
/// slaves poll at times interleaved with the bridge's own generation, and a
/// stateful bridge oscillator cannot be read at those times without
/// violating its monotone-read contract.
struct BridgeLink {
  Seconds start = 0;   ///< polls arriving before this go unanswered
  Seconds offset = 0;  ///< served-clock error at t = 0
  double skew = 0;     ///< served-clock drift rate (dimensionless)
  [[nodiscard]] Seconds error_at(Seconds t) const { return offset + skew * t; }
};

/// The per-client half of the simulation: one host oscillator + driver
/// timestamping + poll schedule + server attachment walk. A single-client
/// drive uses one (as Testbed); a fleet owns N of these. The RNG fork layout
/// is part of the determinism contract — the goldens pin each
/// ScenarioConfig's stream bit for bit.
class ClientNode {
 public:
  explicit ClientNode(const ScenarioConfig& config, std::uint32_t client_id = 0,
                      std::optional<BridgeLink> bridge = std::nullopt);

  /// Generate the next exchange; std::nullopt when `duration` is exhausted.
  /// Polls falling inside scheduled outages are skipped entirely (no element
  /// is produced for them, matching a data-collection gap).
  std::optional<Exchange> next();

  /// Generate the next exchange directly into `out` (no optional round-trip,
  /// no return-value copy). Returns false — leaving `out` untouched — when
  /// `duration` is exhausted. This is the one exchange generator: next() and
  /// generate_batch() both drain it.
  bool next_into(Exchange& out);

  /// Generate up to `max_rows` exchanges into SoA columns, one next_into()
  /// row at a time. Replaces the contents of `out`; returns the row count
  /// (< max_rows only when the duration ran out).
  std::size_t generate_batch(ExchangeBatch& out, std::size_t max_rows);

  /// Poll slots enumerated so far, including outage-skipped ones (after a
  /// full drain: the total slot count of the configured duration).
  [[nodiscard]] std::uint64_t polls_enumerated() const { return poll_index_; }

  /// The slot count of the configured duration: the k with
  /// k · poll_period < duration, under next_into()'s own test. A full drain
  /// enumerates exactly this many and yields at most this many exchanges
  /// (lost ones included; outage slots yield none).
  [[nodiscard]] std::uint64_t poll_slots() const;

  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] const Oscillator& oscillator() const { return oscillator_; }
  [[nodiscard]] Oscillator& oscillator() { return oscillator_; }
  /// The initial (t = 0) attachment's path.
  [[nodiscard]] const PathModel& path() const {
    return attachments_.front().path;
  }

  /// The p the rate algorithms should estimate (mean true period).
  [[nodiscard]] double true_period() const { return oscillator_.mean_period(); }
  /// The configured (spec-sheet) period used as the initial guess.
  [[nodiscard]] double nominal_period() const {
    return oscillator_.nominal_period();
  }

  /// Position of this client in its fleet (0 for a standalone node).
  [[nodiscard]] std::uint32_t client_id() const { return client_id_; }
  /// Set when this client is a hierarchy slave attached to a bridge.
  [[nodiscard]] const std::optional<BridgeLink>& bridge() const {
    return bridge_;
  }

 private:
  /// One host↔server attachment: the path and server in use from
  /// `start_time` until the next switch.
  struct Attachment {
    Seconds start_time = 0;
    ServerKind kind = ServerKind::kInt;
    std::uint32_t id = 0;
    PathModel path;
    NtpServer server;
  };

  [[nodiscard]] Attachment& active_attachment(Seconds t);

  ScenarioConfig config_;  ///< owns the EventSchedule the components borrow
  Rng rng_;
  Oscillator oscillator_;
  HostTimestamper host_;
  std::vector<Attachment> attachments_;
  DagMonitor dag_;
  std::uint64_t poll_index_ = 0;
  EventCursor outage_cursor_;         ///< poll times are monotone
  std::size_t attachment_index_ = 0;  ///< monotone active-attachment cursor
  std::uint32_t client_id_ = 0;
  std::optional<BridgeLink> bridge_;  ///< upstream bridge, when a slave
};

/// The single-client testbed: a ClientNode with its defaults (client 0, no
/// bridge). The canonical name for every single-client drive (sessions,
/// benches, goldens).
using Testbed = ClientNode;

}  // namespace tscclock::sim
