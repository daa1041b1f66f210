// ClockSession: the single canonical Testbed → estimator drive loop.
//
// Every evaluation surface in this repo — the per-figure benches, the
// examples, and the parallel scenario sweep — measures the same thing: a
// Testbed exchange stream processed by a clock algorithm and scored against
// the DAG reference monitor. ClockSession owns that exchange-processing
// sequence exactly once:
//
//   1. drain the Testbed (loss accounting for exchanges that never arrive);
//   2. feed each reply's transport identity to a ServerChangeDetector and
//      forward changes via ClockEstimator::notify_server_change() (identity
//      lives on the transport endpoint, not the NTP reference-id field —
//      two distinct servers can both report "GPS");
//   3. process_exchange() on the {Ta, Tb, Te, Tf} quadruple;
//   4. align with the reference: θg_i = C(Tf_i) − Tg_i, where C is the
//      algorithm's own uncorrected clock (paper §2.4, §5.3). Because both
//      the estimate and θg use the same C, the arbitrary clock origin
//      cancels and the error measures pure tracking quality (up to the Δ/2
//      path-asymmetry ambiguity);
//   5. apply the configured warm-up policy and emit a SampleRecord to every
//      attached SampleSink.
//
// There is one whole-stream drive: run() pulls the Testbed's SoA stream in
// kBatchChunk-row chunks (Testbed::generate_batch) and hands each chunk to
// process_batch(ExchangeBatch). Lanes whose sinks are all reducers take the
// record-free fast path; a lane with any record-shaped sink materializes
// each row and runs process(), the per-exchange sequence, so every
// SampleRecord is the one a per-exchange loop would emit. process() stays
// public as the reference the batched lane is pinned against.
//
// Which algorithm processes the stream is a ClockEstimator (see
// harness/estimator.hpp); the default is the robust TscNtpClock via
// TscNtpEstimator. Consumers differ only in their estimator and in which
// sink they attach (vector collector for figures, percentile/ADEV reducer
// for the sweep, CSV writer for offline inspection, ad-hoc callback for
// everything else) — never in how the stream is driven.
//
// MultiEstimatorSession is the one lane fan-out: lanes keyed by (client,
// estimator), each a ClockSession with its own sink chain. Over a Testbed
// every lane scores the one client's stream — the paper's comparative
// evaluations (robust vs SW-NTP vs naive) on identical packets; over a
// FleetTestbed each client's stream is generated once and scored by all of
// that client's lanes. It is also the one owner of a trace recording (the
// estimator-independent stream the replay lanes score, harness/replay.hpp).
//
// Warm-up policies (see WarmupPolicy): the figure benches historically cut
// warm-up on ground-truth time (truth.tb, simulation-only), while the sweep
// cuts on the observable server stamp (tb_stamp, what a deployed client
// could actually do). Both conventions are preserved and must be chosen
// explicitly per session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/time_types.hpp"
#include "core/clock.hpp"
#include "core/params.hpp"
#include "core/server_change.hpp"
#include "harness/estimator.hpp"
#include "sim/scenario.hpp"

namespace tscclock {
class ThreadPool;  // common/thread_pool.hpp
}  // namespace tscclock

namespace tscclock::sim {
class FleetTestbed;  // sim/fleet.hpp
}  // namespace tscclock::sim

namespace tscclock::harness {

class TraceRecorder;  // harness/replay.hpp
struct ReplayTrace;   // harness/replay.hpp

/// Rows per generate_batch call in every whole-stream drive (ClockSession
/// and MultiEstimatorSession run(), over a Testbed or a fleet): large enough
/// to amortize the per-batch sink flush, small enough to keep the working
/// set (~200 bytes/exchange) inside L2. One constant for every drive: the
/// 1-client fleet ≡ ClockSession golden needs the identical chunking.
inline constexpr std::size_t kBatchChunk = 1024;

/// Which timebase the warm-up discard cut uses.
enum class WarmupPolicy {
  /// Cut on the observable server receive stamp Tb (what a real client can
  /// measure). The sweep's historical convention.
  kObservable,
  /// Cut on ground-truth server arrival time (simulation-only). The figure
  /// benches' historical convention; keeps their fixed-seed outputs stable.
  kGroundTruth,
};

/// Warm-up flag of one exchange under `config`'s policy — THE definition of
/// the warm-up cut, shared by ClockSession and TraceRecorder so the replay
/// lane's `evaluated` set can never drift from the online lanes'. A lost
/// poll has no server stamp, so it is cut on ground truth under either
/// policy.
struct SessionConfig;
bool exchange_in_warmup(const SessionConfig& config, const sim::Exchange& ex);

/// The same warm-up cut from SoA fields (the ExchangeBatch fast lane); the
/// Exchange overload forwards here so there is still one definition.
bool exchange_in_warmup(const SessionConfig& config, bool lost,
                        Seconds tb_stamp, Seconds truth_tb);

struct SessionConfig {
  core::Params params;
  /// Records earlier than this (by the policy's timebase) are flagged as
  /// warm-up and excluded from `evaluated` (the paper analyses all long
  /// traces post-warm-up).
  Seconds discard_warmup = 0.0;
  WarmupPolicy warmup_policy = WarmupPolicy::kObservable;
  /// Route reply identities through a ServerChangeDetector and forward
  /// changes to the clock. On single-server traces the detector never fires,
  /// so this is a no-op there; disable only to study the unassisted
  /// level-shift path (see bench/ext_server_change.cpp).
  bool track_server_changes = true;
  /// Also emit records for lost, reference-less and warm-up exchanges
  /// (flagged via SampleRecord::lost / ref_available / in_warmup). Off by
  /// default: most consumers only score evaluated packets.
  bool emit_unevaluated = false;
  /// Fleet position of the client this session drives; stamped onto every
  /// emitted SampleRecord (and recorded trace sample) so fleet traces and
  /// replays stay per-client. 0 for the single-client drives.
  std::uint32_t client_id = 0;
};

/// One exchange as scored by the session — a superset of the fields the
/// figure benches (bench::RunPoint) and the sweep reduction historically
/// collected, so every consumer can be fed from the same record stream.
struct SampleRecord {
  std::uint64_t index = 0;  ///< poll sequence number (sim::Exchange::index)
  bool lost = false;        ///< no reply reached the host
  bool ref_available = false;
  bool in_warmup = false;       ///< before the configured discard cut
  bool evaluated = false;       ///< !lost && ref_available && !in_warmup
  bool server_changed = false;  ///< this reply triggered notify_server_change
  std::uint32_t client_id = 0;  ///< fleet position of the emitting client

  // -- Observables (valid when !lost) --------------------------------------
  core::RawExchange raw;             ///< the {Ta, Tb, Te, Tf} quadruple
  TscCount tf_counts_corrected = 0;  ///< side-mode-corrected Tf (§2.4)
  Seconds tg = 0;        ///< DAG stamp (valid when ref_available)
  Seconds truth_ta = 0;  ///< ground-truth wire departure (simulation-only;
                         ///< also filled for lost records)
  Seconds truth_tb = 0;  ///< ground-truth server arrival (simulation-only)
  double t_day = 0;      ///< raw.tb in days (figure x-axes)

  // -- Clock state after this exchange (valid when !lost) ------------------
  core::ProcessReport report;
  bool warmed_up = false;  ///< clock's own warm-up flag (§6.1)
  double period = 0;       ///< p̂ after this packet [s/count]

  // -- Reference-aligned errors (valid when !lost && ref_available) --------
  Seconds reference_offset = 0;  ///< θg = C(Tf) − Tg
  Seconds offset_error = 0;      ///< θ̂(t) − θg
  Seconds naive_error = 0;       ///< θ̂_i (naive) − θg
  Seconds abs_clock_error = 0;   ///< Ca(Tf) − Tg
};

/// Aggregate outcome of a session (counts match the legacy drive loops:
/// `exchanges` includes lost ones, `evaluated` survives warm-up discard).
struct SessionSummary {
  std::size_t exchanges = 0;
  std::size_t lost = 0;
  std::size_t evaluated = 0;
  /// Poll slots enumerated by the Testbed including outage-skipped ones;
  /// filled by run() after the drain (the Testbed owns the slot arithmetic).
  std::uint64_t polls_enumerated = 0;
  core::ClockStatus final_status;
};

/// Struct-of-arrays view of the *evaluated* records of one processed batch:
/// exactly the three series the sweep reductions consume (server receive
/// stamp raw.tb, absolute clock error Ca(Tf)−Tg, offset tracking error
/// θ̂−θg), in emission order. Batch-aware sinks receive these through one
/// on_batch() call per batch instead of one on_sample() virtual call per
/// record, and ClockSession::process_batch skips building the ~200-byte
/// SampleRecord entirely when only batch-aware sinks are attached.
struct SampleBatch {
  std::vector<double> tb;               ///< server receive stamps [s]
  std::vector<double> abs_clock_error;  ///< Ca(Tf) − Tg
  std::vector<double> offset_error;     ///< θ̂ − θg

  [[nodiscard]] std::size_t size() const { return tb.size(); }
  [[nodiscard]] bool empty() const { return tb.empty(); }
  void clear() {
    tb.clear();
    abs_clock_error.clear();
    offset_error.clear();
  }
  void reserve(std::size_t n) {
    tb.reserve(n);
    abs_clock_error.reserve(n);
    offset_error.reserve(n);
  }
  void push(double tb_stamp, double clock_error, double tracking_error) {
    tb.push_back(tb_stamp);
    abs_clock_error.push_back(clock_error);
    offset_error.push_back(tracking_error);
  }
};

/// Receives every record the session emits. Implementations must not assume
/// they are the only sink attached.
class SampleSink {
 public:
  virtual ~SampleSink() = default;
  virtual void on_sample(const SampleRecord& record) = 0;

  /// Opt in to batched delivery: when every sink attached to a session
  /// reports true, ClockSession::process_batch delivers the evaluated stream
  /// as SampleBatch struct-of-arrays via on_batch() and never materializes
  /// SampleRecords. Only sinks that consume nothing beyond
  /// {raw.tb, abs_clock_error, offset_error} of *evaluated* records (the
  /// reducers) should opt in; record-shaped consumers keep the default.
  /// Batch-aware sinks must still implement on_sample identically — the
  /// per-exchange adapter and mixed-sink sessions feed them per record.
  [[nodiscard]] virtual bool wants_batch() const { return false; }

  /// Batched delivery; invoked only from process_batch, and only when every
  /// attached sink wants_batch(). Default: ignore.
  virtual void on_batch(const SampleBatch& batch) { (void)batch; }
};

class ClockSession {
 public:
  /// Default-estimator session: the robust TscNtpClock via TscNtpEstimator.
  /// `nominal_period` is the spec-sheet counter period used as the clock's
  /// initial guess (normally sim::Testbed::nominal_period()).
  ClockSession(const SessionConfig& config, double nominal_period);

  /// Drive an arbitrary estimator through the identical pipeline.
  ClockSession(const SessionConfig& config,
               std::unique_ptr<ClockEstimator> estimator);

  /// Attach a sink (non-owning; must outlive the session's processing).
  /// Sinks are invoked in attachment order, synchronously per record.
  void add_sink(SampleSink& sink);

  /// Process one exchange through the canonical sequence: the path
  /// process_batch takes for record-shaped sinks, and the reference the
  /// batched lane is pinned against.
  void process(const sim::Exchange& exchange);

  /// Process a generator-written SoA batch (sim::Testbed::generate_batch)
  /// through the identical canonical sequence. When every attached sink
  /// wants_batch() (the sweep/bench reducer case), columns are read
  /// directly, no SampleRecord is built and the evaluated
  /// {tb, abs_clock_error, offset_error} series reach the sinks through one
  /// on_batch() call — values bit-identical to process()'s. With any
  /// record-shaped sink attached, each row is materialized into one scratch
  /// Exchange and run through process(), so every sink observes exactly the
  /// per-exchange stream and a CallbackSink reading this lane's clock sees
  /// it as of its own record.
  void process_batch(const sim::ExchangeBatch& batch);

  /// The same over rows [begin, end) of `batch` (the fleet drive hands each
  /// lane its segment of a client's epoch buffer without copying it).
  void process_batch(const sim::ExchangeBatch& batch, std::size_t begin,
                     std::size_t end);

  /// Drain the whole testbed — Testbed::generate_batch → process_batch in
  /// kBatchChunk-row chunks — and return the final summary.
  const SessionSummary& run(sim::Testbed& testbed);

  /// Forward to run(); kept for callers written against the old name.
  const SessionSummary& run_batched(sim::Testbed& testbed) {
    return run(testbed);
  }

  /// The summary so far (final_status is refreshed on access).
  const SessionSummary& summary();

  /// Record the testbed's poll-slot count after an external drain (run()
  /// does this itself; MultiEstimatorSession drives process_batch()
  /// directly and back-fills each lane through this).
  void set_polls_enumerated(std::uint64_t polls);

  /// The robust clock behind the default estimator. Precondition: the
  /// session drives a TscNtpEstimator (the default); sessions constructed
  /// around another estimator must use estimator() instead.
  [[nodiscard]] core::TscNtpClock& clock();
  [[nodiscard]] const core::TscNtpClock& clock() const;

  [[nodiscard]] ClockEstimator& estimator() { return *estimator_; }
  [[nodiscard]] const ClockEstimator& estimator() const { return *estimator_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }

 private:
  void emit(const SampleRecord& record);

  SessionConfig config_;
  std::unique_ptr<ClockEstimator> estimator_;
  TscNtpEstimator* robust_ = nullptr;  ///< set when estimator_ is the default
  core::ServerChangeDetector server_changes_;
  std::vector<SampleSink*> sinks_;
  SessionSummary summary_;
  SampleBatch batch_;  ///< process_batch scratch (reused across batches)
  sim::Exchange scratch_;  ///< SoA-row materialization scratch
};

/// Fan exchange streams into lanes keyed by (client, estimator): every lane
/// is a full ClockSession (own estimator, own ServerChangeDetector, own
/// warm-up bookkeeping, own sink chain) fed the exchange sequence of the
/// client its config.client_id names. Over a Testbed every lane scores the
/// one stream; over a FleetTestbed client k's stream is generated once and
/// scored by each of k's lanes. This is the drive layer for every
/// head-to-head comparison — one lane per algorithm (per client), all
/// scored by the same pipeline.
///
/// Cross-lane rule: lanes consume the stream one chunk at a time, a lane
/// draining its whole segment of a chunk before the client's next lane
/// starts it. A sink sees its own lane's state as of its own record, but a
/// lane of the same client only at chunk granularity, and under the fleet
/// drive another client's lanes not at all (they run on other threads). To
/// pair values across lanes, key them by SampleRecord::index and combine
/// them after run().
class MultiEstimatorSession {
 public:
  MultiEstimatorSession();
  ~MultiEstimatorSession();  // out-of-line: TraceRecorder is incomplete here

  /// Add a lane; returns its index. `config.client_id` is the lane's client
  /// (0 for a Testbed). Lanes process each chunk in the order they were
  /// added (they are independent, so order only affects sink callback
  /// interleaving across lanes).
  std::size_t add_lane(const SessionConfig& config,
                       std::unique_ptr<ClockEstimator> estimator);

  /// Record the estimator-independent stream alongside the lanes (one
  /// canonical recording shared by every replay lane — see
  /// harness/replay.hpp). `config` supplies the warm-up cut and the
  /// server-change tracking switch; call before processing starts. A
  /// recording holds one client's stream, so only run(Testbed&) takes it.
  void enable_trace_recording(const SessionConfig& config);

  /// The recorded stream. Precondition: enable_trace_recording was called.
  [[nodiscard]] const ReplayTrace& trace() const;

  /// Attach a sink to one lane (non-owning). It is fed on the thread that
  /// runs the lane, so a sink is attached once: attaching it again, here or
  /// through add_shared_sink, is a ContractViolation.
  void add_sink(std::size_t lane, SampleSink& sink);

  /// Attach one sink to several lanes (fleet-wide reducers, trace dumps).
  /// Under run(FleetTestbed&) it is fed by one task at a time in the serial
  /// drive's order: chunk by chunk, then client by client, then lane by
  /// lane, in the shape each lane emitted (records or batches). It sees each
  /// epoch's output while the lanes run the next epoch, so it must not read
  /// lane state. run(Testbed&) refuses a sink shared by several lanes; with
  /// one lane this is add_sink.
  void add_shared_sink(std::span<const std::size_t> lanes, SampleSink& sink);

  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  [[nodiscard]] ClockSession& lane(std::size_t index);
  [[nodiscard]] const ClockSession& lane(std::size_t index) const;

  /// Drain the whole testbed, kBatchChunk rows at a time: the shared
  /// recorder observes each row once (materialized through one scratch
  /// Exchange), then every lane consumes the chunk through
  /// ClockSession::process_batch. Back-fills each lane's poll-slot count.
  void run(sim::Testbed& testbed);

  /// Drain the fleet in epochs of kBatchChunk × poll_period / client_count
  /// seconds and back-fill each lane's poll-slot count from its client.
  /// Reproduces the serial merge drive bit for bit: the fleet stream merged
  /// by send time and cut into kBatchChunk-row chunks, each chunk's
  /// per-client segment fed to the client's lanes in lane order. Each epoch
  /// generates every client's exchanges up to a horizon (parallel), merges
  /// the buffered rows into whole chunks (serial), runs each client's lanes
  /// over their segments of those chunks (parallel), then feeds the shared
  /// sinks what the lanes emitted (one task, beside the next epoch's
  /// lanes). The per-client steps run on `pool` when one is given, else on
  /// the calling thread; the results are identical either way. When several
  /// clients throw in one step, the lowest client's exception propagates.
  /// Refuses a trace recording and a lane whose client the fleet lacks.
  void run(sim::FleetTestbed& fleet, ThreadPool* pool = nullptr);

  /// Forward to run(); kept for callers written against the old name.
  void run_batched(sim::Testbed& testbed) { run(testbed); }

 private:
  class SharedCapture;  // lane-side stand-in for its shared sinks

  /// Record `sink` as attached, refusing one attached before: a sink on
  /// two lanes could be fed from two threads at once.
  void claim(const SampleSink& sink);

  std::vector<std::unique_ptr<ClockSession>> lanes_;
  /// Per lane: its shared sinks' capture, or null when it has none.
  std::vector<std::unique_ptr<SharedCapture>> captures_;
  std::vector<const SampleSink*> attached_;
  std::unique_ptr<TraceRecorder> recorder_;
  sim::Exchange scratch_;  ///< SoA-row materialization scratch
};

}  // namespace tscclock::harness
