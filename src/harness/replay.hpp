// Replay lane: non-causal estimators in the same head-to-head tables as the
// online ones.
//
// §5.3 observes that post-processing with future packets "makes good
// performance immediately following long periods of congestion or sequential
// packet loss much easier to achieve". To grade that claim alongside the
// online algorithms, the drive layer records the estimator-independent
// exchange stream once (a TraceRecorder, owned by
// MultiEstimatorSession::enable_trace_recording) and replays it through
// ReplayEstimators after the drain:
//
//   * TraceRecorder retains, per poll, the ReplaySample observe_row()
//     reads (harness/session.hpp) — the RawExchange quadruple, the DAG
//     ground truth, the warm-up flag under the recording config's policy,
//     and loss/server-change markers — and nothing any online lane
//     computed;
//   * ReplayEstimator consumes the complete trace at once (non-causal by
//     construction) and returns per-packet offsets over a fixed whole-trace
//     timescale; OfflineSmootherEstimator adapts core::smooth_offsets;
//   * ReplaySession walks the recorded trace, scores each arrived sample
//     with the online lanes' score_exchange() (θg = C(Tf) − Tg on the
//     estimator's whole-trace C) and delivers through the same SinkChain —
//     so percentiles/ADEV of replay lanes come from the identical
//     ReducerSink code path as every online lane.
//
// A replayed estimate at packet k uses packets after k: replay rows measure
// what post-processing can achieve on the identical packets, not what a
// deployable online clock achieves. The sweep's --estimators axis carries
// them anyway (the `offline` registry family, harness/estimator_spec.hpp)
// precisely so that comparison is made on one drive layer, one seed and one
// reduction.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/offline.hpp"
#include "core/params.hpp"
#include "core/server_change.hpp"
#include "harness/session.hpp"

namespace tscclock::harness {

/// A recorded exchange stream plus the drive-level counters a summary needs.
struct ReplayTrace {
  std::vector<ReplaySample> samples;  ///< every poll, lost ones flagged
  std::size_t exchanges = 0;          ///< samples.size(), incl. lost
  std::size_t lost = 0;
  std::uint64_t polls_enumerated = 0;  ///< incl. outage-skipped slots
  /// Simulation recordings carry the DAG reference; imported real traces
  /// declare what their file header says (trace/trace_io.hpp).
  GroundTruthMode ground_truth = GroundTruthMode::kReference;

  /// Non-lost samples (what a replay estimator actually processes).
  [[nodiscard]] std::size_t arrived() const { return exchanges - lost; }
};

/// Records the estimator-independent stream. One recording per drive is
/// canonical and shared by every replay lane: the trace does not depend on
/// which (or how many) online estimators scored it.
class TraceRecorder {
 public:
  /// `config` supplies the warm-up cut (discard_warmup + warmup_policy) and
  /// the server-change tracking switch; the estimator and sink fields are
  /// ignored.
  explicit TraceRecorder(const SessionConfig& config);

  /// Record every row of `batch` (lost ones included), read by
  /// observe_row() exactly as a ClockSession under the same config reads it.
  void observe(const sim::ExchangeBatch& batch);

  /// Record one exchange: observe() over a one-row batch.
  void observe(const sim::Exchange& exchange);

  void set_polls_enumerated(std::uint64_t polls) {
    trace_.polls_enumerated = polls;
  }

  [[nodiscard]] const ReplayTrace& trace() const { return trace_; }

 private:
  SessionConfig config_;
  core::ServerChangeDetector server_changes_;
  ReplayTrace trace_;
};

/// What a replay estimator computes from a complete trace.
struct ReplayOutput {
  /// θ̂(t_k) for every non-lost sample, in trace order.
  std::vector<Seconds> offsets;
  /// Per-packet point error E_k aligned with `offsets`; may be left empty
  /// when the algorithm has no such notion (records then carry 0).
  std::vector<Seconds> point_errors;
  /// The fixed uncorrected clock C(T) the offsets refer to — the timebase
  /// the θg alignment divides out, whole-trace by construction.
  CounterTimescale timescale;
  double period = 0;  ///< p̂ [s/count]
  /// Status counters for the session summary (fields with no analogue stay
  /// zero; replay estimators never step, so steps stay 0 implicitly).
  core::ClockStatus status;
};

/// The algorithm-facing seam of the replay lane: ClockEstimator's non-causal
/// sibling. Implementations see the whole trace at once.
class ReplayEstimator {
 public:
  virtual ~ReplayEstimator() = default;

  /// Stable identifier (doubles as the report/CSV label), e.g. "offline".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Process a complete recorded trace. Must return exactly one offset per
  /// non-lost sample. Precondition: at least two non-lost samples
  /// (ReplaySession guards this and emits nothing for smaller traces).
  virtual ReplayOutput process_trace(
      std::span<const ReplaySample> samples) = 0;
};

/// The §5.3 two-sided smoother (core::smooth_offsets) behind the replay
/// seam: whole-trace robust rate, symmetric RTT-weighted offset window.
///
/// Split::kShifts is the `offline(split=shifts)` registry variant: before
/// smoothing, the trace is cut at detected level shifts (sustained changes
/// of the windowed minimum RTT — an offline two-sided analogue of the §6.2
/// detector) and each segment is smoothed with its own whole-segment rate
/// and minimum, so a route change cannot poison r̂ and p̄ across its
/// boundary. Per-segment offsets are translated onto the first segment's
/// timescale, keeping one fixed C(T) for the θg alignment; on a trace with
/// no detected shift the output is identical to Split::kNone by
/// construction.
///
/// With a `pool` (non-owning, must outlive process_trace), each smoothing
/// pass runs its windows on it; the output is the same without one.
class OfflineSmootherEstimator final : public ReplayEstimator {
 public:
  enum class Split { kNone, kShifts };

  OfflineSmootherEstimator(const core::Params& params, double nominal_period,
                           Split split = Split::kNone,
                           ThreadPool* pool = nullptr);

  [[nodiscard]] std::string_view name() const override { return "offline"; }
  ReplayOutput process_trace(std::span<const ReplaySample> samples) override;

  /// The last replay's full §5.3 result (poor-window accounting, r̂, p̄);
  /// under Split::kShifts the concatenated per-segment result on the first
  /// segment's timescale.
  [[nodiscard]] const core::OfflineResult& result() const { return result_; }

  /// Segments the last replay was smoothed in (1 + detected shift cuts).
  [[nodiscard]] std::size_t segments() const { return segments_; }

 private:
  core::Params params_;
  double nominal_period_;
  Split split_;
  ThreadPool* pool_;
  core::OfflineResult result_;
  std::size_t segments_ = 0;
};

/// Scores one ReplayEstimator over a recorded trace with the online lanes'
/// score_exchange() (relative-only traces are a mode of it) and delivers in
/// trace order through a SinkChain, so a ReducerSink (or CsvTraceSink)
/// attached here produces statistics directly comparable with every online
/// lane, and a replay never buffers more than kBatchChunk rows of output.
class ReplaySession {
 public:
  ReplaySession(const SessionConfig& config,
                std::unique_ptr<ReplayEstimator> estimator);

  /// Attach a sink (non-owning; must outlive run()).
  void add_sink(SampleSink& sink);

  /// Replay the whole trace and return the final summary. A trace with
  /// fewer than two non-lost samples yields zero evaluated records (an
  /// "n/a" row downstream) instead of throwing: a total-loss scenario must
  /// not fail its whole grid cell.
  const SessionSummary& run(const ReplayTrace& trace);

  [[nodiscard]] const SessionSummary& summary() const { return summary_; }
  [[nodiscard]] ReplayEstimator& estimator() { return *estimator_; }
  [[nodiscard]] const ReplayEstimator& estimator() const {
    return *estimator_;
  }
  [[nodiscard]] const SessionConfig& config() const { return config_; }

 private:
  SessionConfig config_;
  std::unique_ptr<ReplayEstimator> estimator_;
  SinkChain sinks_;
  SessionSummary summary_;
};

// Replay estimators are built through the EstimatorSpec registry
// (harness/estimator_spec.hpp): estimator_registry().make_replay(spec, …).
// The `offline` family self-registers at the bottom of replay.cpp.

}  // namespace tscclock::harness
