// Fleet simulation tests: the seed-identity contract (a 1-client fleet is
// bit-identical to the classic single-client Testbed/ClockSession drive),
// merge determinism across thread counts and shard slices, the
// client-parallel epoch drive against the serial merge drive, the correlated
// shared-congestion coupling, the bridge-hierarchy warm-up ordering, the
// mixed-client replay rejection, and the fleet(...) spec parser.
#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "harness/estimator.hpp"
#include "harness/fleet_session.hpp"
#include "harness/replay.hpp"
#include "harness/session.hpp"
#include "harness/sinks.hpp"
#include "sweep/result_io.hpp"
#include "sweep/scenario_grid.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"

namespace tscclock {
namespace {

sim::ScenarioConfig fast_scenario() {
  sim::ScenarioConfig config;
  config.server = sim::ServerKind::kInt;
  config.environment = sim::Environment::kMachineRoom;
  config.poll_period = 16.0;
  config.duration = duration::kHour;
  config.seed = 20040704;
  return config;
}

harness::SessionConfig fast_session_config(const sim::ScenarioConfig& s) {
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(s.poll_period);
  config.discard_warmup = 10 * duration::kMinute;
  config.warmup_policy = harness::WarmupPolicy::kObservable;
  return config;
}

void expect_exchanges_identical(const sim::Exchange& a, const sim::Exchange& b,
                                std::size_t i) {
  ASSERT_EQ(a.index, b.index) << "exchange " << i;
  ASSERT_EQ(a.lost, b.lost) << "exchange " << i;
  ASSERT_EQ(a.ta_counts, b.ta_counts) << "exchange " << i;
  ASSERT_EQ(a.tf_counts, b.tf_counts) << "exchange " << i;
  ASSERT_EQ(a.tb_stamp, b.tb_stamp) << "exchange " << i;
  ASSERT_EQ(a.te_stamp, b.te_stamp) << "exchange " << i;
  ASSERT_EQ(a.tf_counts_corrected, b.tf_counts_corrected) << "exchange " << i;
  ASSERT_EQ(a.server_id, b.server_id) << "exchange " << i;
  ASSERT_EQ(a.server_stratum, b.server_stratum) << "exchange " << i;
  ASSERT_EQ(a.ref_available, b.ref_available) << "exchange " << i;
  ASSERT_EQ(a.tg, b.tg) << "exchange " << i;
  ASSERT_EQ(a.truth.ta, b.truth.ta) << "exchange " << i;
  ASSERT_EQ(a.truth.tb, b.truth.tb) << "exchange " << i;
  ASSERT_EQ(a.truth.te, b.truth.te) << "exchange " << i;
  ASSERT_EQ(a.truth.tf, b.truth.tf) << "exchange " << i;
  ASSERT_EQ(a.truth.d_forward, b.truth.d_forward) << "exchange " << i;
  ASSERT_EQ(a.truth.d_server, b.truth.d_server) << "exchange " << i;
  ASSERT_EQ(a.truth.d_backward, b.truth.d_backward) << "exchange " << i;
}

// -- Seed-identity contract --------------------------------------------------

TEST(FleetSeeds, ClientZeroKeepsTheBaseSeedVerbatim) {
  EXPECT_EQ(sim::FleetTestbed::client_seed(42, 0), 42u);
  EXPECT_EQ(sim::FleetTestbed::client_seed(0xdeadbeef, 0), 0xdeadbeefu);
}

TEST(FleetSeeds, ClientSeedsAreDistinctAndIdentityDerived) {
  std::set<std::uint64_t> seeds;
  for (std::size_t k = 0; k < 16; ++k)
    seeds.insert(sim::FleetTestbed::client_seed(42, k));
  EXPECT_EQ(seeds.size(), 16u);
  // Identity-derived: client k's seed does not depend on the fleet size.
  EXPECT_EQ(sim::FleetTestbed::client_seed(42, 3),
            sim::FleetTestbed::client_seed(42, 3));
}

TEST(FleetStream, SingleClientFleetIsBitIdenticalToTestbed) {
  const sim::ScenarioConfig config = fast_scenario();
  sim::Testbed classic(config);
  sim::FleetTestbed fleet(config, sim::FleetConfig{});

  sim::Exchange expected;
  sim::Exchange actual;
  std::uint32_t client = 99;
  std::size_t i = 0;
  while (classic.next_into(expected)) {
    ASSERT_TRUE(fleet.next_into(client, actual)) << "fleet ran dry early";
    ASSERT_EQ(client, 0u);
    expect_exchanges_identical(expected, actual, i++);
  }
  EXPECT_FALSE(fleet.next_into(client, actual)) << "fleet ran long";
  EXPECT_GT(i, 100u);
  EXPECT_EQ(fleet.polls_enumerated(), classic.polls_enumerated());
}

TEST(FleetStream, SingleClientFleetSessionMatchesClockSessionBatched) {
  const sim::ScenarioConfig scenario = fast_scenario();
  const harness::SessionConfig config = fast_session_config(scenario);

  sim::Testbed classic(scenario);
  harness::ClockSession session(config, classic.nominal_period());
  harness::ReducerSink classic_reducer(scenario.poll_period);
  session.add_sink(classic_reducer);
  const harness::SessionSummary classic_summary = session.run(classic);

  sim::FleetTestbed fleet(scenario, sim::FleetConfig{});
  harness::MultiEstimatorSession fleet_session;
  fleet_session.add_lane(config,
                         std::make_unique<harness::TscNtpEstimator>(
                             config.params, fleet.client(0).nominal_period()));
  harness::ReducerSink fleet_reducer(scenario.poll_period);
  fleet_session.add_sink(0, fleet_reducer);
  fleet_session.run(fleet);
  const harness::SessionSummary fleet_summary =
      fleet_session.lane(0).summary();

  EXPECT_EQ(fleet_summary.exchanges, classic_summary.exchanges);
  EXPECT_EQ(fleet_summary.lost, classic_summary.lost);
  EXPECT_EQ(fleet_summary.evaluated, classic_summary.evaluated);
  EXPECT_EQ(fleet_summary.polls_enumerated, classic_summary.polls_enumerated);

  // The reduced statistics must match bit for bit: same chunking, same
  // emission order, same arithmetic.
  const auto classic_reduction = classic_reducer.reduce();
  const auto fleet_reduction = fleet_reducer.reduce();
  EXPECT_EQ(fleet_reduction.evaluated, classic_reduction.evaluated);
  EXPECT_EQ(fleet_reduction.clock_error.mean, classic_reduction.clock_error.mean);
  EXPECT_EQ(fleet_reduction.clock_error.percentiles.p50,
            classic_reduction.clock_error.percentiles.p50);
  EXPECT_EQ(fleet_reduction.clock_error.percentiles.p99,
            classic_reduction.clock_error.percentiles.p99);
  EXPECT_EQ(fleet_reduction.offset_error.stddev,
            classic_reduction.offset_error.stddev);
  EXPECT_EQ(fleet_reduction.adev_short, classic_reduction.adev_short);
  EXPECT_EQ(fleet_reduction.adev_long, classic_reduction.adev_long);
}

TEST(FleetStream, SingleClientSweepCellMatchesPreFleetCell) {
  // The sweep-level pin: a grid whose fleet axis holds only the default
  // spec produces the same names, seeds and serialized results as the
  // pre-fleet sweep path (which a non-fleet GridSpec still runs).
  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0};
  grid.duration = duration::kHour;
  grid.master_seed = 7;

  sweep::SweepOptions options;
  options.threads = 1;
  options.discard_warmup = 10 * duration::kMinute;
  const auto classic = sweep::ScenarioSweep(grid).run(options);

  sweep::GridSpec with_axis = grid;
  with_axis.fleets = {sweep::FleetSpec{}};
  const auto fleet = sweep::ScenarioSweep(with_axis).run(options);

  ASSERT_EQ(fleet.size(), classic.size());
  for (std::size_t i = 0; i < classic.size(); ++i) {
    EXPECT_EQ(sweep::serialize_result(fleet[i]),
              sweep::serialize_result(classic[i]));
    EXPECT_EQ(fleet[i].clients, 1u);
  }
}

// -- Merge determinism -------------------------------------------------------

TEST(FleetMerge, GenerateBatchMatchesScalarMergeStream) {
  const sim::ScenarioConfig config = fast_scenario();
  sim::FleetConfig topology;
  topology.n_clients = 3;
  sim::FleetTestbed scalar_fleet(config, topology);
  sim::FleetTestbed batched_fleet(config, topology);

  sim::FleetBatch batch;
  sim::Exchange expected;
  sim::Exchange actual;
  std::uint32_t client = 0;
  std::size_t i = 0;
  while (true) {
    const std::size_t n = batched_fleet.generate_batch(batch, 256);
    for (std::size_t row = 0; row < n; ++row) {
      ASSERT_TRUE(scalar_fleet.next_into(client, expected));
      ASSERT_EQ(batch.client_id[row], client) << "row " << i;
      batch.exchanges.materialize(row, actual);
      if (!expected.lost) {
        expect_exchanges_identical(expected, actual, i);
      } else {
        ASSERT_TRUE(actual.lost) << "row " << i;
      }
      ++i;
    }
    if (n < 256) break;
  }
  EXPECT_FALSE(scalar_fleet.next_into(client, expected));
  EXPECT_GT(i, 500u);
}

TEST(FleetMerge, StreamIsOrderedBySendTime) {
  sim::FleetConfig topology;
  topology.n_clients = 4;
  sim::FleetTestbed fleet(fast_scenario(), topology);
  sim::Exchange ex;
  std::uint32_t client = 0;
  double last_ta = -1.0;
  std::set<std::uint32_t> seen;
  while (fleet.next_into(client, ex)) {
    ASSERT_GE(ex.truth.ta, last_ta);
    last_ta = ex.truth.ta;
    seen.insert(client);
  }
  EXPECT_EQ(seen.size(), 4u) << "every client contributes to the merge";
}

TEST(FleetMerge, EveryClientStreamEqualsAStandaloneNode) {
  // The merge is a pure reordering: demultiplexing the merged stream by
  // client gives, row for row, what a standalone ClientNode with that
  // client's derived config, id and bridge generates on its own.
  const auto specs = sweep::parse_fleet_specs(
      "fleet(n=4,shared_congestion=1),fleet(n=4,hierarchy=1)");
  ASSERT_EQ(specs.size(), 2u);
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.config.hierarchy ? "hierarchy" : "shared_congestion");
    sim::FleetTestbed fleet(fast_scenario(), spec.config);
    ASSERT_EQ(fleet.client_count(), 4u);
    std::vector<std::vector<sim::Exchange>> merged(4);
    sim::FleetBatch batch;
    while (fleet.generate_batch(batch, 256) > 0) {
      for (std::size_t row = 0; row < batch.size(); ++row) {
        sim::Exchange ex;
        batch.exchanges.materialize(row, ex);
        merged.at(batch.client_id[row]).push_back(ex);
      }
    }

    for (std::uint32_t k = 0; k < 4; ++k) {
      SCOPED_TRACE(k);
      const sim::ClientNode& client = fleet.client(k);
      sim::ClientNode standalone(client.config(), k, client.bridge());
      sim::ExchangeBatch chunk;
      sim::Exchange ex;
      std::size_t i = 0;
      while (standalone.generate_batch(chunk, 37) > 0) {
        for (std::size_t row = 0; row < chunk.size(); ++row, ++i) {
          ASSERT_LT(i, merged[k].size()) << "standalone node ran long";
          chunk.materialize(row, ex);
          expect_exchanges_identical(merged[k][i], ex, i);
        }
      }
      EXPECT_EQ(i, merged[k].size()) << "standalone node ran dry early";
      EXPECT_GT(i, 100u);
      EXPECT_EQ(standalone.polls_enumerated(), client.polls_enumerated());
    }
  }
}

sweep::GridSpec fleet_grid() {
  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0};
  grid.duration = duration::kHour;
  grid.master_seed = 20040704;
  sweep::FleetSpec shared;
  shared.config.n_clients = 3;
  shared.config.shared_congestion = true;
  sweep::FleetSpec chain;
  chain.config.n_clients = 3;
  chain.config.hierarchy = true;
  chain.config.bridge_warmup = 600.0;
  grid.fleets = {sweep::FleetSpec{}, shared, chain};
  return grid;
}

TEST(FleetSweep, BitIdenticalAcrossThreadCounts) {
  const sweep::GridSpec grid = fleet_grid();
  sweep::SweepOptions options;
  options.discard_warmup = 10 * duration::kMinute;
  options.threads = 1;
  const auto reference = sweep::ScenarioSweep(grid).run(options);
  ASSERT_EQ(reference.size(), 3u);
  for (const auto& r : reference) EXPECT_FALSE(r.failed) << r.error;

  options.threads = 4;
  const auto parallel = sweep::ScenarioSweep(grid).run(options);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(sweep::serialize_result(parallel[i]),
              sweep::serialize_result(reference[i]));
  }
}

TEST(FleetSweep, ShardSlicesReassembleTheUnshardedResults) {
  const sweep::GridSpec grid = fleet_grid();
  sweep::SweepOptions options;
  options.discard_warmup = 10 * duration::kMinute;
  options.threads = 2;
  const sweep::ScenarioSweep engine(grid);
  const auto whole = engine.run(options);

  std::vector<std::string> reassembled(whole.size());
  for (std::size_t shard = 1; shard <= 2; ++shard) {
    options.shard = sweep::ShardSpec{shard, 2};
    const auto slice = engine.run(options);
    const auto owned =
        sweep::shard_scenarios(engine.scenarios().size(), options.shard);
    ASSERT_EQ(slice.size(), owned.size());
    for (std::size_t j = 0; j < owned.size(); ++j)
      reassembled[owned[j]] = sweep::serialize_result(slice[j]);
  }
  for (std::size_t i = 0; i < whole.size(); ++i)
    EXPECT_EQ(reassembled[i], sweep::serialize_result(whole[i])) << i;
}

TEST(FleetSweep, QuotedScenarioNamesSurviveTraceCsvMerge) {
  // A fleet label carries a comma, so the scenario name is RFC-4180-quoted
  // in the trace CSV's first column; the merge reader must unquote it to
  // claim the rows (regression: it used to split on the first comma and
  // refuse the whole merge).
  namespace fs = std::filesystem;
  const fs::path tmp = fs::path(testing::TempDir()) / "fleet_trace_merge";
  fs::create_directories(tmp);
  const auto read_file = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };

  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kLoc};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0};
  grid.duration = duration::kHour;
  grid.master_seed = 20040704;
  sweep::FleetSpec shared;
  shared.config.n_clients = 2;
  shared.config.shared_congestion = true;  // label: fleet(n=2,shared_congestion=1)
  grid.fleets = {sweep::FleetSpec{}, shared};
  const sweep::ScenarioSweep engine(grid);

  sweep::SweepOptions single;
  single.threads = 1;
  single.discard_warmup = 10 * duration::kMinute;
  single.csv_path = (tmp / "single.csv").string();
  const std::size_t cells =
      engine.scenarios().size() * grid.estimators.size();
  ASSERT_EQ(engine.run(single).size(), cells);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  const std::string reference_csv = read_file(tmp / "single.csv");
  ASSERT_NE(reference_csv.find("\"ServerLoc"), std::string::npos)
      << "expected a quoted scenario column";

  std::vector<sweep::ShardDump> dumps;
  std::vector<std::string> traces;
  std::size_t shard_cells = 0;
  for (std::size_t i = 1; i <= 2; ++i) {
    sweep::SweepOptions options = single;
    options.shard = sweep::ShardSpec{i, 2};
    options.csv_path = (tmp / ("s" + std::to_string(i) + ".csv")).string();
    options.dump_path = (tmp / ("s" + std::to_string(i) + ".dump")).string();
    shard_cells += engine.run(options).size();
    ASSERT_TRUE(engine.dump_error().empty()) << engine.dump_error();
    dumps.push_back(sweep::read_shard_dump(options.dump_path));
    traces.push_back(options.csv_path);
  }
  EXPECT_EQ(shard_cells, cells);  // the two shards cover the grid once

  const sweep::MergedSweep merged = sweep::merge_shard_dumps(dumps);
  const fs::path merged_csv = tmp / "merged.csv";
  sweep::merge_trace_csv(merged, dumps, traces, merged_csv.string());
  EXPECT_EQ(read_file(merged_csv), reference_csv);
}

TEST(FleetSweep, FleetMetricsPopulatedAndPrinted) {
  const sweep::GridSpec grid = fleet_grid();
  sweep::SweepOptions options;
  options.discard_warmup = 10 * duration::kMinute;
  options.threads = 2;
  const auto results = sweep::ScenarioSweep(grid).run(options);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].clients, 1u);
  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_EQ(results[i].clients, 3u);
    EXPECT_GT(results[i].evaluated, 0u);
    EXPECT_GT(results[i].fleet_worst_p99, 0.0);
    EXPECT_GE(results[i].fleet_pairwise_spread, 0.0);
  }
  std::ostringstream report;
  sweep::print_sweep_report(report, results);
  EXPECT_NE(report.str().find("Fleet metrics"), std::string::npos);
  EXPECT_NE(report.str().find("dispersion [us]"), std::string::npos);
  EXPECT_NE(report.str().find("fleet(n=3,shared_congestion=1)"),
            std::string::npos);
}

// -- Serial-merge oracle ------------------------------------------------------

/// The serial merge drive the epoch drive replaced, kept as its reference:
/// the fleet's send-time-merged stream in kBatchChunk-row chunks, each chunk
/// demultiplexed by client and fed lane by lane. Shared sinks are attached
/// to every lane directly, so they see the records as the lanes emit them.
void serial_merge_drive(harness::MultiEstimatorSession& session,
                        sim::FleetTestbed& fleet) {
  sim::FleetBatch batch;
  std::vector<sim::ExchangeBatch> demux(session.lane_count());
  while (true) {
    const std::size_t n = fleet.generate_batch(batch, harness::kBatchChunk);
    if (n > 0) {
      for (auto& lane_batch : demux) lane_batch.clear();
      for (std::size_t i = 0; i < n; ++i)
        demux[batch.client_id[i]].push_row(batch.exchanges, i);
      for (std::size_t k = 0; k < demux.size(); ++k)
        if (!demux[k].empty()) session.lane(k).process_batch(demux[k]);
    }
    if (n < harness::kBatchChunk) break;
  }
  for (std::size_t k = 0; k < session.lane_count(); ++k)
    session.lane(k).set_polls_enumerated(fleet.client(k).polls_enumerated());
}

/// The sweep's pooled population summary of a fleet cell.
class PopulationSink final : public harness::SampleSink {
 public:
  explicit PopulationSink(bool streaming) : streaming_(streaming) {}
  void on_sample(const harness::SampleRecord& record) override {
    if (record.evaluated) add(record.abs_clock_error, record.offset_error);
  }
  [[nodiscard]] bool wants_batch() const override { return true; }
  void on_batch(const harness::SampleBatch& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i)
      add(batch.abs_clock_error[i], batch.offset_error[i]);
  }
  [[nodiscard]] SeriesSummary clock_error() const {
    return streaming_ ? clock_stream_.summary() : summarize(clock_);
  }
  [[nodiscard]] SeriesSummary offset_error() const {
    return streaming_ ? offset_stream_.summary() : summarize(offset_);
  }

 private:
  void add(double clock_error, double offset_error) {
    clock_stream_.add(clock_error);
    offset_stream_.add(offset_error);
    clock_.push_back(clock_error);
    offset_.push_back(offset_error);
  }
  bool streaming_;
  std::vector<double> clock_;
  std::vector<double> offset_;
  StreamingSeriesSummary clock_stream_;
  StreamingSeriesSummary offset_stream_;
};

struct OracleCell {
  sweep::ScenarioResult result;
  std::vector<harness::SampleRecord> records;
};

/// One fleet cell as the sweep scores it (same lanes, sinks and result
/// fields), driven by serial_merge_drive.
OracleCell oracle_cell(const sweep::SweepScenario& scenario,
                       const harness::EstimatorSpec& spec, Seconds warmup,
                       bool streaming) {
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.config.poll_period);
  config.discard_warmup = warmup;
  config.warmup_policy = harness::WarmupPolicy::kObservable;
  config.emit_unevaluated = true;  // a trace sink is attached
  sim::FleetTestbed fleet(scenario.config, scenario.fleet.config);
  harness::MultiEstimatorSession session;
  std::vector<harness::FleetClientProbe> probes(fleet.client_count());
  for (std::size_t k = 0; k < fleet.client_count(); ++k) {
    config.client_id = static_cast<std::uint32_t>(k);
    session.add_lane(config,
                     registry.make_online(spec, config.params,
                                          fleet.client(k).nominal_period()));
    session.add_sink(k, probes[k]);
  }
  PopulationSink population(streaming);
  harness::CollectorSink trace;
  const double tau0 = scenario.config.poll_period;
  harness::ReducerSink exact(tau0, 16, 256);
  harness::StreamingReducerSink stream(tau0, 16, 256);
  for (std::size_t k = 0; k < session.lane_count(); ++k) {
    session.lane(k).add_sink(population);
    session.lane(k).add_sink(trace);
  }
  harness::SampleSink& reference =
      streaming ? static_cast<harness::SampleSink&>(stream) : exact;
  session.lane(0).add_sink(reference);
  serial_merge_drive(session, fleet);

  OracleCell out;
  sweep::ScenarioResult& r = out.result;
  r.scenario_index = scenario.index;
  r.name = scenario.name;
  r.seed = scenario.config.seed;
  r.server = scenario.config.server;
  r.environment = scenario.config.environment;
  r.estimator = spec;
  for (std::size_t k = 0; k < session.lane_count(); ++k) {
    const harness::SessionSummary& summary = session.lane(k).summary();
    r.exchanges += summary.exchanges;
    r.lost += summary.lost;
    r.evaluated += summary.evaluated;
    r.polls += static_cast<std::size_t>(summary.polls_enumerated);
  }
  r.skipped = r.polls - r.exchanges;
  r.final_status = session.lane(0).summary().final_status;
  const auto reduction = streaming ? stream.reduce() : exact.reduce();
  r.adev_short_tau = reduction.adev_short_tau;
  r.adev_short = reduction.adev_short;
  r.adev_long_tau = reduction.adev_long_tau;
  r.adev_long = reduction.adev_long;
  for (std::size_t k = 0; k < session.lane_count(); ++k)
    r.steps += session.lane(k).estimator().steps();
  r.clock_error = population.clock_error();
  r.offset_error = population.offset_error();
  const harness::FleetReduction fleet_metrics = harness::reduce_fleet(probes);
  r.clients = fleet_metrics.clients;
  r.fleet_dispersion = fleet_metrics.dispersion;
  r.fleet_worst_p99 = fleet_metrics.worst_p99;
  r.fleet_pairwise_spread = fleet_metrics.pairwise_spread;
  out.records = trace.records();
  return out;
}

void expect_records_identical(const std::vector<harness::SampleRecord>& a,
                              const std::vector<harness::SampleRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const harness::SampleRecord& x = a[i];
    const harness::SampleRecord& y = b[i];
    ASSERT_EQ(x.index, y.index) << "record " << i;
    ASSERT_EQ(x.client_id, y.client_id) << "record " << i;
    ASSERT_EQ(x.lost, y.lost) << "record " << i;
    ASSERT_EQ(x.ref_available, y.ref_available) << "record " << i;
    ASSERT_EQ(x.in_warmup, y.in_warmup) << "record " << i;
    ASSERT_EQ(x.evaluated, y.evaluated) << "record " << i;
    ASSERT_EQ(x.server_changed, y.server_changed) << "record " << i;
    ASSERT_EQ(x.raw.ta, y.raw.ta) << "record " << i;
    ASSERT_EQ(x.raw.tb, y.raw.tb) << "record " << i;
    ASSERT_EQ(x.raw.te, y.raw.te) << "record " << i;
    ASSERT_EQ(x.raw.tf, y.raw.tf) << "record " << i;
    ASSERT_EQ(x.tf_counts_corrected, y.tf_counts_corrected) << "record " << i;
    ASSERT_EQ(x.tg, y.tg) << "record " << i;
    ASSERT_EQ(x.truth_ta, y.truth_ta) << "record " << i;
    ASSERT_EQ(x.truth_tb, y.truth_tb) << "record " << i;
    ASSERT_EQ(x.report.offset_estimate, y.report.offset_estimate)
        << "record " << i;
    ASSERT_EQ(x.warmed_up, y.warmed_up) << "record " << i;
    ASSERT_EQ(x.period, y.period) << "record " << i;
    ASSERT_EQ(x.offset_error, y.offset_error) << "record " << i;
    ASSERT_EQ(x.naive_error, y.naive_error) << "record " << i;
    ASSERT_EQ(x.abs_clock_error, y.abs_clock_error) << "record " << i;
  }
}

TEST(FleetParallel, EpochDriveMatchesTheSerialMergeDrive) {
  // The client-parallel drive against the serial merge drive it replaced,
  // for pools of 1, 2 and 4 workers: the three topologies, two polling
  // periods, both reduction engines, two estimator families, and a
  // record-shaped shared sink (the trace collector) beside the batch-shaped
  // population summary. Twelve hours give every cell several merged chunks.
  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0, 64.0};
  grid.duration = 12 * duration::kHour;
  grid.master_seed = 20040704;
  grid.fleets = sweep::parse_fleet_specs(
      "fleet(n=16,shared_congestion=1),fleet(n=5,hierarchy=1),fleet(n=3)");
  const std::vector<harness::EstimatorSpec> specs = {
      harness::EstimatorSpec{"robust", {}},
      harness::EstimatorSpec{"swntp", {}}};
  const Seconds warmup = 30 * duration::kMinute;
  const auto scenarios = sweep::expand_grid(grid);
  ASSERT_EQ(scenarios.size(), 6u);

  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t workers : {1u, 2u, 4u})
    pools.push_back(std::make_unique<ThreadPool>(workers));
  for (const auto& scenario : scenarios) {
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(scenario.name + (streaming ? " streaming" : " exact"));
      std::vector<OracleCell> oracle;
      for (const auto& spec : specs)
        oracle.push_back(oracle_cell(scenario, spec, warmup, streaming));
      for (const auto& pool : pools) {
        SCOPED_TRACE(pool->thread_count());
        std::vector<harness::CollectorSink> traces(specs.size());
        std::vector<harness::SampleSink*> sinks;
        for (auto& trace : traces) sinks.push_back(&trace);
        const auto results = sweep::run_scenario_multi(
            scenario, specs, warmup, sinks, streaming, {}, pool.get());
        ASSERT_EQ(results.size(), specs.size());
        for (std::size_t e = 0; e < specs.size(); ++e) {
          ASSERT_FALSE(results[e].failed) << results[e].error;
          EXPECT_EQ(sweep::serialize_result(results[e]),
                    sweep::serialize_result(oracle[e].result));
          expect_records_identical(traces[e].records(), oracle[e].records);
        }
      }
    }
  }
}

TEST(FleetParallel, CongestedCellDigestIsPinned) {
  // A 16-client shared-congestion cell over three days on four workers, as
  // the serial merge drive scored it (digest over the result dump line,
  // captured before the epoch drive existed). Three days is long enough for
  // an epoch to hold two merged chunks, so the pooled P2 summary also pins
  // the chunk-major order of the shared-sink feed.
  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0};
  grid.duration = 3 * duration::kDay;
  grid.master_seed = 20040704;
  grid.fleets = sweep::parse_fleet_specs("fleet(n=16,shared_congestion=1)");
  sweep::SweepOptions options;
  options.threads = 4;
  options.discard_warmup = duration::kHour;
  options.streaming_reduction = true;
  const auto results = sweep::ScenarioSweep(grid).run(options);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].failed) << results[0].error;
  EXPECT_EQ(results[0].exchanges, 259200u);
  EXPECT_EQ(fnv1a64(sweep::serialize_result(results[0]) + "\n"),
            0x4eb79b45c9bfd704ull);
}

/// The robust clock, refusing its `fail_at`-th exchange with a
/// ContractViolation that names its client.
class FailingEstimator final : public harness::ClockEstimator {
 public:
  FailingEstimator(std::unique_ptr<harness::ClockEstimator> inner,
                   std::size_t client, std::size_t fail_at)
      : inner_(std::move(inner)), client_(client), fail_at_(fail_at) {}
  [[nodiscard]] std::string_view name() const override { return "failing"; }
  core::ProcessReport process_exchange(
      const core::RawExchange& exchange) override {
    if (++seen_ == fail_at_)
      throw ContractViolation("client " + std::to_string(client_) +
                              " refused exchange " + std::to_string(seen_));
    return inner_->process_exchange(exchange);
  }
  [[nodiscard]] Seconds uncorrected_time(TscCount count) const override {
    return inner_->uncorrected_time(count);
  }
  [[nodiscard]] Seconds absolute_time(TscCount count) const override {
    return inner_->absolute_time(count);
  }
  [[nodiscard]] double period() const override { return inner_->period(); }
  [[nodiscard]] bool warmed_up() const override { return inner_->warmed_up(); }
  [[nodiscard]] core::ClockStatus status() const override {
    return inner_->status();
  }

 private:
  std::unique_ptr<harness::ClockEstimator> inner_;
  std::size_t client_;
  std::size_t fail_at_;
  std::size_t seen_ = 0;
};

TEST(FleetParallel, LowestFailingClientWinsAtEveryThreadCount) {
  // Clients 3 and 1 both hit a ContractViolation in the same epoch; the
  // drive must surface client 1's, whichever lane threw first, so a FAILED
  // fleet row reads the same at any thread count.
  const sim::ScenarioConfig scenario = fast_scenario();
  const harness::SessionConfig config = fast_session_config(scenario);
  sim::FleetConfig topology;
  topology.n_clients = 4;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);  // the calling thread
  for (const std::size_t workers : {1u, 2u, 4u})
    pools.push_back(std::make_unique<ThreadPool>(workers));
  for (const auto& pool : pools) {
    SCOPED_TRACE(pool ? pool->thread_count() : 0);
    sim::FleetTestbed fleet(scenario, topology);
    harness::MultiEstimatorSession session;
    for (std::size_t k = 0; k < topology.n_clients; ++k) {
      std::unique_ptr<harness::ClockEstimator> estimator =
          std::make_unique<harness::TscNtpEstimator>(
              config.params, fleet.client(k).nominal_period());
      if (k == 1 || k == 3)
        estimator = std::make_unique<FailingEstimator>(std::move(estimator),
                                                       k, 100);
      harness::SessionConfig lane = config;
      lane.client_id = static_cast<std::uint32_t>(k);
      session.add_lane(lane, std::move(estimator));
    }
    try {
      session.run(fleet, pool.get());
      FAIL() << "expected a ContractViolation";
    } catch (const ContractViolation& e) {
      EXPECT_STREQ(e.what(), "client 1 refused exchange 100");
    }
  }
}

// -- The client axis of MultiEstimatorSession ---------------------------------

void expect_summaries_identical(const SeriesSummary& a, const SeriesSummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.percentiles.p01, b.percentiles.p01);
  EXPECT_EQ(a.percentiles.p25, b.percentiles.p25);
  EXPECT_EQ(a.percentiles.p50, b.percentiles.p50);
  EXPECT_EQ(a.percentiles.p75, b.percentiles.p75);
  EXPECT_EQ(a.percentiles.p99, b.percentiles.p99);
}

/// One estimator's output of a fleet run: its shared record collector and
/// its shared pooled reducer.
struct EstimatorOutput {
  harness::CollectorSink records;
  harness::ReducerSink pooled{harness::Percentiles::kExact};
};

/// Drive `fleet` through one session holding, for every client, one lane per
/// spec in `specs` (client-major), each spec's lanes sharing that spec's
/// collector and pooled reducer in `out`.
void run_estimator_lanes(sim::FleetTestbed& fleet,
                         std::span<const harness::EstimatorSpec> specs,
                         harness::SessionConfig config,
                         std::vector<EstimatorOutput>& out, ThreadPool* pool) {
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  harness::MultiEstimatorSession session;
  std::vector<std::vector<std::size_t>> lanes(specs.size());
  for (std::size_t k = 0; k < fleet.client_count(); ++k) {
    config.client_id = static_cast<std::uint32_t>(k);
    for (std::size_t e = 0; e < specs.size(); ++e)
      lanes[e].push_back(session.add_lane(
          config, registry.make_online(specs[e], config.params,
                                       fleet.client(k).nominal_period())));
  }
  for (std::size_t e = 0; e < specs.size(); ++e) {
    session.add_shared_sink(lanes[e], out[e].records);
    session.add_shared_sink(lanes[e], out[e].pooled);
  }
  session.run(fleet, pool);
}

TEST(FleetLanes, TwoEstimatorsPerClientMatchOneEstimatorRuns) {
  // Robust and SW-NTP lanes on every client of one fleet drive must score
  // exactly what two one-estimator fleet drives score: each client's stream
  // is generated once and fed to both of its lanes, and each estimator's
  // shared sinks see the serial drive's order. Without a pool and on one
  // and four workers.
  sim::ScenarioConfig scenario = fast_scenario();
  scenario.duration = 12 * duration::kHour;
  harness::SessionConfig config = fast_session_config(scenario);
  config.emit_unevaluated = true;
  sim::FleetConfig topology;
  topology.n_clients = 4;
  topology.shared_congestion = true;
  const std::vector<harness::EstimatorSpec> specs = {
      harness::EstimatorSpec{"robust", {}},
      harness::EstimatorSpec{"swntp", {}}};

  std::vector<EstimatorOutput> alone(specs.size());
  for (std::size_t e = 0; e < specs.size(); ++e) {
    sim::FleetTestbed fleet(scenario, topology);
    std::vector<EstimatorOutput> one(1);
    run_estimator_lanes(fleet, std::span(specs).subspan(e, 1), config, one,
                        nullptr);
    alone[e].records = one[0].records;
    alone[e].pooled = one[0].pooled;
  }

  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);  // the calling thread
  for (const std::size_t workers : {1u, 4u})
    pools.push_back(std::make_unique<ThreadPool>(workers));
  for (const auto& pool : pools) {
    SCOPED_TRACE(pool ? pool->thread_count() : 0);
    sim::FleetTestbed fleet(scenario, topology);
    std::vector<EstimatorOutput> both(specs.size());
    run_estimator_lanes(fleet, specs, config, both, pool.get());
    for (std::size_t e = 0; e < specs.size(); ++e) {
      SCOPED_TRACE(specs[e].label());
      ASSERT_GT(alone[e].records.records().size(), 1000u);
      expect_records_identical(both[e].records.records(),
                               alone[e].records.records());
      const auto a = both[e].pooled.reduce();
      const auto b = alone[e].pooled.reduce();
      EXPECT_EQ(a.evaluated, b.evaluated);
      expect_summaries_identical(a.clock_error, b.clock_error);
      expect_summaries_identical(a.offset_error, b.offset_error);
    }
  }
}

TEST(FleetLanes, RefusesWhatTheDrivesCannotHonour) {
  const sim::ScenarioConfig scenario = fast_scenario();
  const harness::SessionConfig config = fast_session_config(scenario);
  sim::FleetConfig topology;
  topology.n_clients = 4;
  const auto robust = [&] {
    return std::make_unique<harness::TscNtpEstimator>(config.params, 1e-9);
  };
  const std::size_t both[] = {0, 1};

  // A sink is attached once, to one lane or as one shared sink.
  {
    harness::MultiEstimatorSession session;
    session.add_lane(config, robust());
    session.add_lane(config, robust());
    harness::CollectorSink sink;
    session.add_sink(0, sink);
    EXPECT_THROW(session.add_sink(1, sink), ContractViolation);
    EXPECT_THROW(session.add_sink(0, sink), ContractViolation);
    EXPECT_THROW(session.add_shared_sink(both, sink), ContractViolation);
  }
  // A recording holds one client's stream: a fleet run refuses it.
  {
    sim::FleetTestbed fleet(scenario, topology);
    harness::MultiEstimatorSession session;
    session.add_lane(config, robust());
    session.enable_trace_recording(config);
    EXPECT_THROW(session.run(fleet), ContractViolation);
  }
  // A lane's client must exist in the fleet.
  {
    sim::FleetTestbed fleet(scenario, topology);
    harness::MultiEstimatorSession session;
    harness::SessionConfig lane = config;
    lane.client_id = 4;
    session.add_lane(lane, robust());
    EXPECT_THROW(session.run(fleet), ContractViolation);
  }
  // The Testbed drive feeds lanes one after another, so it refuses a sink
  // shared by several lanes.
  {
    sim::Testbed testbed(scenario);
    harness::MultiEstimatorSession session;
    session.add_lane(config, robust());
    session.add_lane(config, robust());
    harness::ReducerSink pooled(harness::Percentiles::kExact);
    session.add_shared_sink(both, pooled);
    EXPECT_THROW(session.run(testbed), ContractViolation);
  }
}

// -- Correlated path conditions ----------------------------------------------

TEST(FleetCoupling, SharedCongestionInflatesEveryClientsRtt) {
  sim::ScenarioConfig config = fast_scenario();
  config.duration = 4 * duration::kHour;
  sim::FleetConfig topology;
  topology.n_clients = 3;
  topology.shared_congestion = true;
  sim::FleetTestbed fleet(config, topology);

  const auto& windows = fleet.shared_congestion_windows();
  ASSERT_FALSE(windows.empty());
  const auto in_shared_window = [&](Seconds t) {
    for (const auto& w : windows)
      if (t >= w.start && t < w.end) return true;
    return false;
  };

  // Per client: the minimum forward one-way delay inside the shared windows
  // must sit a full shift above the out-of-window floor — for EVERY client,
  // which is exactly the cross-client correlation private noise cannot fake.
  std::vector<double> min_inside(3, 1e9);
  std::vector<double> min_outside(3, 1e9);
  std::vector<std::size_t> inside_count(3, 0);
  sim::Exchange ex;
  std::uint32_t client = 0;
  while (fleet.next_into(client, ex)) {
    if (ex.lost) continue;
    auto& bucket = in_shared_window(ex.truth.ta) ? min_inside : min_outside;
    bucket[client] = std::min(bucket[client], ex.truth.d_forward);
    if (in_shared_window(ex.truth.ta)) ++inside_count[client];
  }
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_GT(inside_count[k], 20u) << "client " << k;
    // The shared windows add 1.5 ms to the forward floor; the private
    // asymmetry adds at most 0.8 ms elsewhere, so a 1.2 ms gap is
    // unambiguous shared-window signal.
    EXPECT_GT(min_inside[k] - min_outside[k], 1.2e-3) << "client " << k;
  }
}

TEST(FleetCoupling, SharedCongestionDoesNotPerturbClientZeroIdentity) {
  // Coupling changes the schedule, not the seeds: client 0 still uses the
  // scenario seed verbatim and client k its identity-derived seed.
  sim::FleetConfig topology;
  topology.n_clients = 2;
  topology.shared_congestion = true;
  sim::FleetTestbed fleet(fast_scenario(), topology);
  EXPECT_EQ(fleet.client(0).config().seed, fast_scenario().seed);
  EXPECT_EQ(fleet.client(1).config().seed,
            sim::FleetTestbed::client_seed(fast_scenario().seed, 1));
}

// -- Hierarchy ----------------------------------------------------------------

TEST(FleetHierarchy, SlavesReceiveNothingBeforeTheBridgeWarmsUp) {
  sim::FleetConfig topology;
  topology.n_clients = 3;
  topology.hierarchy = true;
  topology.bridge_warmup = 900.0;
  sim::FleetTestbed fleet(fast_scenario(), topology);

  std::vector<std::size_t> early_arrivals(3, 0);
  std::vector<std::size_t> late_arrivals(3, 0);
  sim::Exchange ex;
  std::uint32_t client = 0;
  while (fleet.next_into(client, ex)) {
    if (ex.lost) continue;
    if (ex.truth.tb < topology.bridge_warmup) {
      ++early_arrivals[client];
    } else {
      ++late_arrivals[client];
    }
    if (client > 0) {
      // Slaves answer from the bridge's served clock at stratum 2 and can
      // only do so once the bridge serves time: the warm-up ordering of the
      // chain (master -> bridge -> slaves).
      EXPECT_GE(ex.truth.tb, topology.bridge_warmup);
      EXPECT_EQ(ex.server_stratum, 2);
    }
  }
  EXPECT_GT(early_arrivals[0], 0u) << "the bridge itself polls from t=0";
  EXPECT_EQ(early_arrivals[1], 0u);
  EXPECT_EQ(early_arrivals[2], 0u);
  EXPECT_GT(late_arrivals[1], 0u);
  EXPECT_GT(late_arrivals[2], 0u);
}

// -- Replay rejection ---------------------------------------------------------

TEST(FleetReplay, MixedClientTraceIsRejectedWithAPreciseError) {
  const sim::ScenarioConfig scenario = fast_scenario();
  harness::SessionConfig config = fast_session_config(scenario);
  harness::ReplayTrace trace;
  harness::ReplaySample sample;
  sample.client_id = 0;
  trace.samples.push_back(sample);
  sample.client_id = 1;
  trace.samples.push_back(sample);
  trace.exchanges = 2;

  harness::ReplaySession replay(
      config, std::make_unique<harness::OfflineSmootherEstimator>(
                  config.params, 1e-9));
  try {
    replay.run(trace);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("client_id 0 and 1"), std::string::npos) << what;
    EXPECT_NE(what.find("demultiplex"), std::string::npos) << what;
  }
}

TEST(FleetReplay, UniformClientTraceIsAccepted) {
  const sim::ScenarioConfig scenario = fast_scenario();
  harness::SessionConfig config = fast_session_config(scenario);
  harness::ReplayTrace trace;
  harness::ReplaySample sample;
  sample.client_id = 3;  // any single client is fine, not just 0
  sample.lost = true;
  trace.samples.push_back(sample);
  trace.exchanges = 1;
  trace.lost = 1;

  harness::ReplaySession replay(
      config, std::make_unique<harness::OfflineSmootherEstimator>(
                  config.params, 1e-9));
  EXPECT_EQ(replay.run(trace).evaluated, 0u);
}

TEST(FleetReplay, MultiClientFleetCellRefusesReplaySpecs) {
  sweep::GridSpec grid = fleet_grid();
  grid.fleets = {grid.fleets[1]};  // the 3-client shared-congestion value
  grid.estimators = {harness::EstimatorSpec{"robust", {}},
                     harness::EstimatorSpec{"offline", {}}};
  sweep::SweepOptions options;
  options.threads = 1;
  options.discard_warmup = 10 * duration::kMinute;
  const auto results = sweep::ScenarioSweep(grid).run(options);
  ASSERT_EQ(results.size(), 2u);
  // The library contains the throw in the cell: both lanes FAILED with the
  // replay explanation (the CLI refuses the combination up front, exit 2).
  for (const auto& r : results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("replays a recorded single-client trace"),
              std::string::npos)
        << r.error;
  }
}

// -- Fleet spec parsing -------------------------------------------------------

TEST(FleetSpecParse, AcceptsCanonicalShapes) {
  const auto single = sweep::parse_fleet_specs("fleet");
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0].single());
  EXPECT_EQ(single[0].label(), "fleet");

  const auto multi = sweep::parse_fleet_specs(
      "fleet,fleet(n=16),fleet(n=8,shared_congestion=1,hierarchy=1,"
      "bridge_warmup=600)");
  ASSERT_EQ(multi.size(), 3u);
  EXPECT_EQ(multi[1].config.n_clients, 16u);
  EXPECT_FALSE(multi[1].single());
  EXPECT_EQ(multi[1].label(), "fleet(n=16)");
  EXPECT_EQ(multi[2].config.n_clients, 8u);
  EXPECT_TRUE(multi[2].config.shared_congestion);
  EXPECT_TRUE(multi[2].config.hierarchy);
  EXPECT_EQ(multi[2].config.bridge_warmup, 600.0);
  EXPECT_EQ(multi[2].label(),
            "fleet(n=8,shared_congestion=1,hierarchy=1,bridge_warmup=600)");
}

TEST(FleetSpecParse, RejectsMalformedShapesWithPreciseErrors) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      sweep::parse_fleet_specs(text);
      FAIL() << "expected SweepUsageError for '" << text << "'";
    } catch (const sweep::SweepUsageError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << text << " -> " << e.what();
    }
  };
  expect_error("", "empty");
  expect_error("fleet,,fleet(n=2)", "empty");
  expect_error("gleet(n=2)", "fleet");
  expect_error("fleet(n=0)", "n must be in [1, 1024]");
  expect_error("fleet(n=1025)", "n must be in [1, 1024]");
  expect_error("fleet(m=2)", "unknown key 'm'");
  expect_error("fleet(n=2,n=3)", "duplicate");
  expect_error("fleet(shared_congestion=2)", "shared_congestion");
  expect_error("fleet(hierarchy=yes)", "hierarchy");
  expect_error("fleet(bridge_warmup=-1)", "bridge_warmup");
  expect_error("fleet(n=4", "missing ')'");
  expect_error("fleet(n=2),fleet(n=2)", "duplicate");
}

// The fleet axis speaks the estimator axis's grammar: every accepted spec
// parses to a canonical fixed point, and the label names exactly the
// configuration the cell simulates.
TEST(FleetSpecParse, ParsesToACanonicalFixedPoint) {
  const auto parse_one = [](const std::string& text) {
    const auto specs = sweep::parse_fleet_specs(text);
    EXPECT_EQ(specs.size(), 1u) << text;
    return specs.at(0);
  };
  const auto same_config = [](const sim::FleetConfig& a,
                              const sim::FleetConfig& b) {
    return a.n_clients == b.n_clients &&
           a.shared_congestion == b.shared_congestion &&
           a.hierarchy == b.hierarchy && a.bridge_warmup == b.bridge_warmup;
  };
  for (const std::string text :
       {"fleet", "fleet()", " fleet ( n = 3 ) ", "fleet(n=01)",
        "fleet(hierarchy=true,n=5)", "fleet(shared_congestion=false)",
        "fleet(n=2,bridge_warmup=600.0000001)",
        "fleet(bridge_warmup=900.0000001)", "fleet(bridge_warmup=-0)",
        "fleet(n=1024,shared_congestion=1,hierarchy=1,bridge_warmup=1e5)"}) {
    const sweep::FleetSpec first = parse_one(text);
    const sweep::FleetSpec again = parse_one(first.label());
    EXPECT_TRUE(same_config(first.config, again.config)) << text;
    EXPECT_EQ(again.label(), first.label()) << text;
    // The label prints the warm-up the cell simulates (a default warm-up is
    // elided from the label, so it is the default).
    const std::string label = first.label();
    const std::string key = "bridge_warmup=";
    const std::size_t at = label.find(key);
    const double printed = at == std::string::npos
                               ? sim::FleetConfig{}.bridge_warmup
                               : std::stod(label.substr(at + key.size()));
    EXPECT_EQ(first.config.bridge_warmup, printed) << text;
  }
  EXPECT_EQ(parse_one("fleet(n=2,bridge_warmup=600.0000001)").label(),
            "fleet(n=2,bridge_warmup=600)");
  EXPECT_EQ(parse_one("fleet(bridge_warmup=900.0000001)").label(), "fleet");
  EXPECT_TRUE(parse_one("fleet(bridge_warmup=900.0000001)").single());
  EXPECT_EQ(parse_one("fleet(hierarchy=true,n=5)").label(),
            "fleet(n=5,hierarchy=1)");
  EXPECT_EQ(parse_one("fleet(n=01)").label(), "fleet");
  // A hand-built warm-up its label cannot print exactly is refused by the
  // grid, not run under another configuration's name.
  sweep::GridSpec grid;
  sweep::FleetSpec hand_built;
  hand_built.config.bridge_warmup = 900.0000001;
  grid.fleets = {hand_built};
  EXPECT_THROW((void)sweep::expand_grid(grid), ContractViolation);
}

TEST(FleetSpecParse, RefusesNonFiniteWarmups) {
  for (const char* text :
       {"fleet(n=2,bridge_warmup=1e400)", "fleet(bridge_warmup=inf)",
        "fleet(bridge_warmup=nan)"}) {
    try {
      sweep::parse_fleet_specs(text);
      ADD_FAILURE() << "expected SweepUsageError for '" << text << "'";
    } catch (const sweep::SweepUsageError& e) {
      EXPECT_NE(std::string(e.what()).find("bridge_warmup"),
                std::string::npos)
          << e.what();
    }
  }
}

// -- Grid identity ------------------------------------------------------------

TEST(FleetGrid, NonSingleValuesExtendNamesWithoutReseedingSingles) {
  sweep::GridSpec base;
  base.servers = {sim::ServerKind::kInt};
  base.environments = {sim::Environment::kMachineRoom};
  base.poll_periods = {16.0};
  const auto classic = sweep::expand_grid(base);

  sweep::GridSpec extended = base;
  sweep::FleetSpec big;
  big.config.n_clients = 4;
  extended.fleets = {sweep::FleetSpec{}, big};
  const auto with_fleet = sweep::expand_grid(extended);

  ASSERT_EQ(classic.size(), 1u);
  ASSERT_EQ(with_fleet.size(), 2u);
  EXPECT_EQ(with_fleet[0].name, classic[0].name);
  EXPECT_EQ(with_fleet[0].config.seed, classic[0].config.seed);
  EXPECT_EQ(with_fleet[1].name, classic[0].name + "/fleet(n=4)");
  EXPECT_NE(with_fleet[1].config.seed, classic[0].config.seed);
}

TEST(FleetGrid, DescriptorCarriesTheFleetAxis) {
  sweep::GridSpec base;
  const std::string plain = sweep::grid_descriptor(base);
  EXPECT_NE(plain.find("tscclock-grid v3"), std::string::npos);
  EXPECT_NE(plain.find("fleets"), std::string::npos);

  sweep::GridSpec extended = base;
  sweep::FleetSpec big;
  big.config.n_clients = 4;
  extended.fleets.push_back(big);
  EXPECT_NE(sweep::grid_descriptor(extended), plain);
}

}  // namespace
}  // namespace tscclock
