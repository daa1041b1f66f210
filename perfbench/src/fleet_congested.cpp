// fleet_congested: one fleet(n=16,shared_congestion=1) cell — 16 clients of
// ServerInt/machine-room/poll16/steady over 10 simulated days, robust only,
// streaming reduction — on one thread (a single scenario gives the pool
// nothing to do). The only workload where the sim k-way merge, the harness
// demux and 16 lanes of per-client estimator state dominate; the shared
// congestion windows drive the level-shift and sanity paths of every client
// at once.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/fleet_session.hpp"
#include "sim/fleet.hpp"
#include "spans.hpp"
#include "timed.hpp"

namespace perfbench {

namespace {

/// One fleet cell with its probes and set-up block, at the baseline's speed
/// (run_units).
constexpr double kUnitSeconds = 3.5;

sweep::GridSpec grid_spec(std::uint64_t seed) {
  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0};
  sweep::FleetSpec fleet;
  fleet.config.n_clients = 16;
  fleet.config.shared_congestion = true;
  grid.fleets = {fleet};
  grid.estimators = harness::estimator_registry().parse_list("robust");
  // Ten days, not a month: a unit of ~3 s leaves room for several per run,
  // and the per-client working set does not depend on the duration.
  grid.duration = kMonth / 3;
  grid.master_seed = seed;
  return grid;
}

/// The sweep's fleet pool reduction in streaming mode (sweep.cpp keeps its
/// copy file-local): every lane's evaluated clock and offset errors in one
/// population summary, fed in lane order.
class PoolSink final : public harness::SampleSink {
 public:
  void on_sample(const harness::SampleRecord& record) override {
    if (record.evaluated) add(record.abs_clock_error, record.offset_error);
  }
  [[nodiscard]] bool wants_batch() const override { return true; }
  void on_batch(const harness::SampleBatch& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i)
      add(batch.abs_clock_error[i], batch.offset_error[i]);
  }
  [[nodiscard]] tscclock::SeriesSummary clock_error() const {
    return clock_.summary();
  }
  [[nodiscard]] tscclock::SeriesSummary offset_error() const {
    return offset_.summary();
  }

 private:
  void add(double clock_error, double offset_error) {
    clock_.add(clock_error);
    offset_.add(offset_error);
  }
  tscclock::StreamingSeriesSummary clock_;
  tscclock::StreamingSeriesSummary offset_;
};

/// FleetSession::fleet_reduction, over the benchmark's own probes.
harness::FleetReduction fleet_reduction(
    const std::vector<std::unique_ptr<harness::FleetClientProbe>>& probes) {
  harness::FleetReduction out;
  out.clients = probes.size();
  std::vector<double> medians;
  for (const auto& probe : probes) {
    if (probe->clock_error().count() == 0) continue;
    const tscclock::SeriesSummary summary = probe->clock_error().summary();
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

struct TracedFleet {
  sweep::ScenarioResult result;
  RobustCounts counts;  ///< every client's robust lane
};

/// run_scenario_multi's fleet drive (FleetTestbed + FleetSession) rebuilt
/// from public pieces so each call into a layer is a span:
/// FleetTestbed::generate_batch (sim.fleet_generate, generation plus the
/// k-way merge), the ExchangeBatch::push_row demux of each merged chunk
/// (harness.demux), each client's ClockSession::process_batch (core.robust,
/// self time excludes its sinks), and the probe/pool/reference reducers
/// (harness.reduce). The caller checks the cell bit-identical to
/// run_scenario_multi's.
TracedFleet traced_cell(const sweep::SweepScenario& scenario,
                        const harness::EstimatorSpec& spec, SpanTracer& tracer,
                        SinkCalls& calls) {
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  const harness::SessionConfig config =
      sweep_session_config(scenario.config.poll_period);
  sim::FleetTestbed fleet(scenario.config, scenario.fleet.config);
  PoolSink pool;
  harness::StreamingReducerSink reference(scenario.config.poll_period,
                                          kAdevShort, kAdevLong);
  TimedSink timed_pool(pool, tracer, "harness.reduce");
  TimedSink timed_reference(reference, tracer, "harness.reduce");
  std::vector<std::unique_ptr<harness::ClockSession>> lanes;
  std::vector<std::unique_ptr<harness::FleetClientProbe>> probes;
  std::vector<std::unique_ptr<TimedSink>> timed_probes;
  for (std::size_t k = 0; k < fleet.client_count(); ++k) {
    harness::SessionConfig lane = config;
    lane.client_id = static_cast<std::uint32_t>(k);
    lanes.push_back(std::make_unique<harness::ClockSession>(
        lane, registry.make_online(spec, config.params,
                                   fleet.client(k).nominal_period())));
    probes.push_back(std::make_unique<harness::FleetClientProbe>());
    timed_probes.push_back(
        std::make_unique<TimedSink>(*probes.back(), tracer, "harness.reduce"));
    lanes.back()->add_sink(*timed_probes.back());
  }
  for (auto& lane : lanes) lane->add_sink(timed_pool);
  lanes.front()->add_sink(timed_reference);

  sim::FleetBatch merged;
  std::vector<sim::ExchangeBatch> demux(lanes.size());
  while (true) {
    const std::size_t n = tracer.time(
        "sim.fleet_generate", [&] { return fleet.generate_batch(merged, kChunk); });
    if (n > 0) {
      tracer.time("harness.demux", [&] {
        for (auto& lane_batch : demux) lane_batch.clear();
        for (std::size_t i = 0; i < n; ++i)
          demux[merged.client_id[i]].push_row(merged.exchanges, i);
      });
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        if (!demux[k].empty())
          tracer.time("core.robust", [&] { lanes[k]->process_batch(demux[k]); });
      }
    }
    if (n < kChunk) break;
  }
  for (std::size_t k = 0; k < lanes.size(); ++k)
    lanes[k]->set_polls_enumerated(fleet.client(k).polls_enumerated());

  TracedFleet out;
  sweep::ScenarioResult& result = out.result;
  result = cell_result(scenario, spec);
  harness::SessionSummary combined;
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    const harness::SessionSummary& lane = lanes[k]->summary();
    combined.exchanges += lane.exchanges;
    combined.lost += lane.lost;
    combined.evaluated += lane.evaluated;
    combined.polls_enumerated += lane.polls_enumerated;
    if (k == 0) combined.final_status = lane.final_status;
    result.steps += lanes[k]->estimator().steps();
    out.counts.add(lane.final_status);
  }
  fill_summary(result, combined);
  tracer.time("harness.reduce", [&] {
    result.clock_error = pool.clock_error();
    result.offset_error = pool.offset_error();
    const auto client0 = reference.reduce();
    result.adev_short_tau = client0.adev_short_tau;
    result.adev_short = client0.adev_short;
    result.adev_long_tau = client0.adev_long_tau;
    result.adev_long = client0.adev_long;
    const harness::FleetReduction population = fleet_reduction(probes);
    result.clients = population.clients;
    result.fleet_dispersion = population.dispersion;
    result.fleet_worst_p99 = population.worst_p99;
    result.fleet_pairwise_spread = population.pairwise_spread;
  });
  calls.add(timed_pool);
  calls.add(timed_reference);
  for (const auto& probe : timed_probes) calls.add(*probe);
  return out;
}

/// The fleet's clients generated standalone through the SoA
/// ClientNode::generate_batch, from the same derived configurations: the
/// merge's cost is sim.fleet_generate_s minus this.
std::uint64_t generate_clients_alone(const sweep::SweepScenario& scenario,
                                     SpanTracer& tracer) {
  const sim::FleetTestbed fleet(scenario.config, scenario.fleet.config);
  std::uint64_t produced = 0;
  sim::ExchangeBatch batch;
  for (std::size_t k = 0; k < fleet.client_count(); ++k) {
    sim::ClientNode node(fleet.client(k).config(),
                         static_cast<std::uint32_t>(k),
                         fleet.client(k).bridge());
    while (true) {
      const std::size_t n = tracer.time("sim.client_generate", [&] {
        return node.generate_batch(batch, kChunk);
      });
      produced += n;
      if (n < kChunk) break;
    }
  }
  return produced;
}

Report untraced(const RunOptions& options) {
  Report report;
  // Sixteen clients' estimator state and merged batches: the large probe.
  RateMeter meter(1, kProbeLarge);
  // Set-up: grid expansion plus the FleetTestbed construction (16 derived
  // client configurations, RNG forks and attachment walks, the first merge
  // lookahead), which run_scenario_multi repeats inside the timed region.
  sweep::GridSpec grid;
  std::optional<sweep::SweepScenario> scenario;
  SetupTimer setup(kSetupReps, [&] {
    grid = grid_spec(options.seed);
    scenario = sweep::expand_grid(grid).front();
    [[maybe_unused]] const sim::FleetTestbed fleet(scenario->config,
                                                   scenario->fleet.config);
  });
  setup.block(meter.probe());

  std::vector<sweep::ScenarioResult> first;
  std::uint64_t digest = 0;
  run_units(options.seconds, kUnitSeconds, [&] {
    std::vector<sweep::ScenarioResult> results;
    meter.time([&] {
      results = run_cell(*scenario, grid.estimators, true);
      return static_cast<double>(results.front().exchanges);
    });
    count_cells(report, results);
    const std::uint64_t d = results_digest(results);
    if (first.empty()) {
      digest = d;
      first = std::move(results);
    } else {
      report.check(d == digest, "results digest changed between fleet runs");
    }
    setup.block(meter.last_speed());
  });
  check_cells(report, first);
  report.check(first.front().failed || first.front().clients == 16,
               "fleet cell did not simulate 16 clients");
  report.notes.push_back("results digest " + hex64(digest) + " over " +
                         std::to_string(meter.wall_rates().size()) +
                         " fleet runs");
  set_end_to_end(report, meter, setup, lane_accuracy(first, "robust"));
  return report;
}

Report traced(const RunOptions& options) {
  Report report;
  const sweep::GridSpec grid = grid_spec(options.seed);
  const sweep::SweepScenario scenario = sweep::expand_grid(grid).front();

  double start = now_s();
  const auto untraced_cells = run_cell(scenario, grid.estimators, true);
  const double cell_s = now_s() - start;
  const double rss_mb = peak_rss_mb();
  const std::uint64_t digest = results_digest(untraced_cells);
  count_cells(report, untraced_cells);
  check_cells(report, untraced_cells);

  SteadyClock clock;
  SpanTracer tracer(clock);
  SinkCalls calls;
  start = clock.now();
  const TracedFleet hand =
      traced_cell(scenario, grid.estimators.front(), tracer, calls);
  const double traced_wall = clock.now() - start;
  report.check(results_digest({&hand.result, 1}) == digest,
               "traced fleet drive differs from run_scenario_multi");
  check_fast_lane(report, calls);

  SpanTracer alone(clock);
  const std::uint64_t alone_exchanges = generate_clients_alone(scenario, alone);
  const sweep::ScenarioResult& r = hand.result;
  report.check(alone_exchanges == r.exchanges,
               "standalone clients generated " +
                   std::to_string(alone_exchanges) + " exchanges, the merge " +
                   std::to_string(r.exchanges));

  const double fleet_generate = tracer.stats("sim.fleet_generate").self_s;
  const double client_generate = alone.stats("sim.client_generate").self_s;
  report.set("sim.fleet_generate_s", fleet_generate);
  report.set("sim.exch_per_s", static_cast<double>(r.exchanges) / fleet_generate);
  report.set("sim.client_generate_s", client_generate);
  report.set("sim.merge_s", fleet_generate - client_generate);
  report.set("harness.demux_s", tracer.stats("harness.demux").self_s);
  report.set("core.robust_s", tracer.stats("core.robust").self_s);
  report.set("harness.reduce_s", tracer.stats("harness.reduce").self_s);
  report.set("sweep.cell_s_p50", cell_s);
  report.set("sweep.cell_s_max", cell_s);
  report.set("harness.rss_per_client_kb",
             rss_mb * 1024.0 / static_cast<double>(r.clients));
  report.set("sim.exchanges", static_cast<double>(r.exchanges));
  report.set("sim.lost", static_cast<double>(r.lost));
  report.set("harness.evaluated", static_cast<double>(r.evaluated));
  set_robust_counts(report, hand.counts);
  set_accounting(report, tracer, traced_wall, cell_s);
  report.notes.push_back(tscclock::strfmt(
      "results digest %s: run_scenario_multi %.3f s, traced drive %.3f s",
      hex64(digest).c_str(), cell_s, traced_wall));
  return report;
}

}  // namespace

Report run_fleet_congested(const RunOptions& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace perfbench
