// Fleet simulation tests: the seed-identity contract (a 1-client fleet is
// bit-identical to the classic single-client Testbed/ClockSession drive),
// merge determinism across thread counts and shard slices, the correlated
// shared-congestion coupling, the bridge-hierarchy warm-up ordering, the
// mixed-client replay rejection, and the fleet(...) spec parser.
#include "sim/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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
  harness::FleetSession fleet_session;
  fleet_session.add_client(config,
                           std::make_unique<harness::TscNtpEstimator>(
                               config.params, fleet.client(0).nominal_period()));
  harness::ReducerSink fleet_reducer(scenario.poll_period);
  fleet_session.add_sink(0, fleet_reducer);
  fleet_session.run(fleet);
  const harness::SessionSummary fleet_summary =
      fleet_session.combined_summary();

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
  engine.run(single);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  const std::string reference_csv = read_file(tmp / "single.csv");
  ASSERT_NE(reference_csv.find("\"ServerLoc"), std::string::npos)
      << "expected a quoted scenario column";

  std::vector<sweep::ShardDump> dumps;
  std::vector<std::string> traces;
  for (std::size_t i = 1; i <= 2; ++i) {
    sweep::SweepOptions options = single;
    options.shard = sweep::ShardSpec{i, 2};
    options.csv_path = (tmp / ("s" + std::to_string(i) + ".csv")).string();
    options.dump_path = (tmp / ("s" + std::to_string(i) + ".dump")).string();
    engine.run(options);
    ASSERT_TRUE(engine.dump_error().empty()) << engine.dump_error();
    dumps.push_back(sweep::read_shard_dump(options.dump_path));
    traces.push_back(options.csv_path);
  }

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
