// The per-packet steps every lane shares (see harness/session.hpp): reading
// an exchange row as an observation, and scoring an estimate against it.
// The θg alignment, the error columns, the warm-up cut and `evaluated` are
// written here and nowhere else in src/ (CI's "One scoring step in the
// library" step refuses a second copy).
#include "common/time_types.hpp"
#include "harness/session.hpp"

namespace tscclock::harness {

ReplaySample observe_row(const SessionConfig& config,
                         core::ServerChangeDetector& server_changes,
                         const sim::ExchangeBatch& batch, std::size_t row) {
  ReplaySample sample;
  sample.index = batch.index[row];
  sample.client_id = config.client_id;
  sample.truth_ta = batch.truth_ta[row];
  sample.truth_tb = batch.truth_tb[row];
  sample.lost = batch.lost[row] != 0;
  // The warm-up cut. A lost poll has no server stamp, so it is cut on
  // ground truth under either policy.
  const bool observable =
      !sample.lost && config.warmup_policy == WarmupPolicy::kObservable;
  sample.in_warmup = (observable ? batch.tb_stamp[row] : sample.truth_tb) <
                     config.discard_warmup;
  if (sample.lost) return sample;
  sample.raw = core::RawExchange{batch.ta_counts[row], batch.tb_stamp[row],
                                 batch.te_stamp[row], batch.tf_counts[row]};
  sample.tf_counts_corrected = batch.tf_counts_corrected[row];
  sample.t_day = sample.raw.tb / duration::kDay;
  sample.ref_available = batch.ref_available[row] != 0;
  sample.tg = batch.tg[row];
  sample.server_changed =
      config.track_server_changes &&
      server_changes
          .observe(core::ServerIdentity{batch.server_id[row],
                                        batch.server_stratum[row]},
                   sample.index)
          .has_value();
  return sample;
}

Score score_exchange(const ReplaySample& sample,
                     const core::ProcessReport& report, Seconds uncorrected,
                     std::optional<Seconds> absolute, GroundTruthMode mode) {
  Score score;
  if (mode == GroundTruthMode::kRelativeOnly) {
    // The absolute columns stay 0 and must not be read (the mode-aware
    // ReducerSink never collects them).
    score.offset_error = report.offset_estimate - report.naive_offset;
    score.evaluated = !sample.in_warmup;
    return score;
  }
  if (sample.ref_available) {
    // θg from the estimator's own C, errors as estimate − θg.
    score.reference_offset = uncorrected - sample.tg;
    score.offset_error = report.offset_estimate - score.reference_offset;
    score.naive_error = report.naive_offset - score.reference_offset;
    // A replay's Ca(Tf) − Tg = (C(Tf) − θ̂(t_k)) − Tg is the negated
    // tracking error, computed as such so the identity is bit-exact.
    score.abs_clock_error =
        absolute ? *absolute - sample.tg : -score.offset_error;
  }
  score.evaluated = sample.ref_available && !sample.in_warmup;
  return score;
}

}  // namespace tscclock::harness
