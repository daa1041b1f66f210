// Online vs offline (two-sided) offset estimation — quantifying §5.3's
// remark that post-processing with future packets makes performance
// "immediately following long periods of congestion or sequential packet
// loss much easier to achieve". Same trace, three regimes compared:
// steady state, during a heavy congestion episode, and right after a gap.
//
// Both passes run through the drive layer: the online session scores the
// robust clock over the perturbed exchanges as one batch, a standalone
// harness::TraceRecorder records the same exchanges, and the offline
// smoother is replayed over that recording via harness::ReplaySession — the
// same scoring pipeline the sweep's `--estimators offline` lane uses
// (tests/test_replay.cpp pins this migration bit-identical to the legacy
// hand-rolled collection loop).
#include <cmath>
#include <iostream>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/replay.hpp"
#include "support.hpp"

using namespace tscclock;

int main() {
  print_banner(std::cout,
               "Online vs offline smoothing (post-processing ablation)");

  sim::ScenarioConfig scenario;
  scenario.duration = duration::kDay;
  scenario.seed = 4242;
  // A brutal one-hour congestion episode plus a 2-hour outage.
  auto path = sim::ScenarioConfig::path_preset(scenario.server);
  path.forward.congestion_mean_interval = 100 * duration::kDay;  // manual
  scenario.path_override = path;
  scenario.events.add_level_shift(
      {10 * duration::kHour, 11 * duration::kHour, 0.0, 0.0});  // marker only
  scenario.events.add_outage(15 * duration::kHour, 17 * duration::kHour);

  // Heavy congestion 10:00-11:00: injected below as genuine backward
  // queueing spikes (both the host stamp and the DAG reference stamp move,
  // so the reference stays honest while the RTT degrades).

  sim::Testbed testbed(scenario);

  // Perturbed exchange list: drain the testbed, then layer the storm spikes
  // on top so both the host stamp and the DAG reference stamp move.
  std::vector<sim::Exchange> exchanges;
  Rng storm(99);
  while (auto next = testbed.next()) {
    sim::Exchange& ex = *next;
    if (ex.lost || !ex.ref_available) continue;
    const bool in_storm = ex.truth.tb > 10 * duration::kHour &&
                          ex.truth.tb < 11 * duration::kHour;
    if (in_storm && storm.bernoulli(0.8)) {
      // Heavy backward queueing spike: the packet genuinely arrives later.
      const double spike = storm.exponential(4e-3);
      ex.tf_counts += static_cast<TscCount>(spike / testbed.true_period());
      ex.tg += spike;
    }
    exchanges.push_back(ex);
  }

  core::Params params;
  params.poll_period = scenario.poll_period;

  // Online pass: the perturbed exchanges go through the canonical harness
  // sequence as one batch (the record-shaped collector gets one record per
  // packet, as in the figure benches), and the recorder reads the same batch
  // into the estimator-independent trace for the replay lane. Every
  // replayed exchange has a reference and no warm-up cut applies, so online
  // records, replay records and the recorded trace all align 1:1.
  const auto config = bench::session_config(params);
  sim::ExchangeBatch batch;
  for (const auto& ex : exchanges) batch.push(ex);
  harness::TraceRecorder recorder(config);
  recorder.observe(batch);
  harness::ClockSession online(config, testbed.nominal_period());
  harness::CollectorSink online_records;
  online.add_sink(online_records);
  online.process_batch(batch);
  std::vector<double> online_err;
  online_err.reserve(online_records.records().size());
  for (const auto& rec : online_records.records())
    online_err.push_back(rec.offset_error);

  // Offline pass: the §5.3 smoother as a first-class replay estimator,
  // scored over the identical recorded trace and ground truth.
  auto smoother = std::make_unique<harness::OfflineSmootherEstimator>(
      params, testbed.nominal_period());
  const harness::OfflineSmootherEstimator& offline = *smoother;
  harness::ReplaySession replay(config, std::move(smoother));
  harness::CollectorSink replay_records;
  replay.add_sink(replay_records);
  replay.run(recorder.trace());
  std::vector<double> offline_err;
  offline_err.reserve(replay_records.records().size());
  for (const auto& rec : replay_records.records())
    offline_err.push_back(rec.offset_error);

  const std::size_t n = exchanges.size();
  const auto regime = [&](double lo_h, double hi_h,
                          const std::vector<double>& err) {
    std::vector<double> slice;
    for (std::size_t k = 0; k < n; ++k) {
      const double h = exchanges[k].tb_stamp / 3600.0;
      if (h >= lo_h && h < hi_h) slice.push_back(std::fabs(err[k]));
    }
    return percentile_summary(slice);
  };

  TablePrinter table({"regime", "online median [us]", "online p99 [us]",
                      "offline median [us]", "offline p99 [us]"});
  struct Regime {
    const char* name;
    double lo, hi;
  };
  const Regime regimes[] = {
      {"steady state (2h-10h)", 2, 10},
      {"congestion storm (10h-11h)", 10, 11},
      {"first hour after 2h gap", 17, 18},
  };
  for (const auto& r : regimes) {
    const auto on = regime(r.lo, r.hi, online_err);
    const auto off = regime(r.lo, r.hi, offline_err);
    table.add_row({r.name, strfmt("%.1f", on.p50 * 1e6),
                   strfmt("%.1f", on.p99 * 1e6),
                   strfmt("%.1f", off.p50 * 1e6),
                   strfmt("%.1f", off.p99 * 1e6)});
  }
  table.print(std::cout);
  print_comparison(std::cout, "offline advantage location",
                   "after congestion/gaps (uses future packets)",
                   "see storm/post-gap rows");
  std::cout << strfmt("offline poor-window fallbacks: %zu of %zu packets\n",
                      offline.result().poor_windows, recorder.trace().arrived());
  return 0;
}
