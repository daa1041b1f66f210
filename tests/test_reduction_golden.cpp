// Pins the sweep's reduced numbers: the digest of every cell's result line
// (serialize_result, so counts, all five percentiles, means, stddevs, both
// ADEV scales and the final status) under both reduction modes, for plain,
// fleet and imported relative-only trace cells. The other reduction tests
// compare one engine with another; these digests catch a change that moves
// both engines at once, such as the exact mode feeding its ADEV the wrong
// series. Every digest was recorded before the reducers were unified.
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/session.hpp"
#include "sim/scenario.hpp"
#include "sweep/result_io.hpp"
#include "sweep/scenario_grid.hpp"
#include "trace/trace_io.hpp"

namespace tscclock::sweep {
namespace {

constexpr Seconds kDuration = duration::kDay;
constexpr Seconds kWarmup = duration::kHour;

/// The CLI's `outage` and `stress` schedules, placed on kDuration.
std::vector<ScheduleVariant> schedules() {
  ScheduleVariant steady;
  ScheduleVariant outage;
  outage.name = "outage";
  outage.events.add_outage(0.4 * kDuration,
                           0.4 * kDuration + 30 * duration::kMinute);
  ScheduleVariant stress;
  stress.name = "stress";
  stress.events.add_outage(0.25 * kDuration,
                           0.25 * kDuration + 20 * duration::kMinute);
  stress.events.add_server_fault(0.55 * kDuration,
                                 0.55 * kDuration + 10 * duration::kMinute,
                                 150 * duration::kMillisecond);
  stress.server_switches = {{kDuration / 2, sim::ServerKind::kLoc}};
  return {steady, outage, stress};
}

std::vector<harness::EstimatorSpec> specs(std::vector<std::string> labels) {
  std::vector<harness::EstimatorSpec> out;
  for (const auto& label : labels)
    out.push_back(harness::estimator_registry().parse(label));
  return out;
}

/// Each result's dump-line digest must equal `want`, in grid order.
void expect_digests(const std::vector<ScenarioResult>& results,
                    const std::vector<std::uint64_t>& want) {
  ASSERT_EQ(results.size(), want.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    ASSERT_FALSE(r.failed) << r.name << ": " << r.error;
    EXPECT_GT(r.adev_short, 0.0) << r.name << " / " << r.estimator.label();
    const std::uint64_t got = fnv1a64(serialize_result(r) + "\n");
    EXPECT_EQ(got, want[i]) << r.name << " / " << r.estimator.label()
                            << ": 0x"
                            << strfmt("%016llx",
                                      static_cast<unsigned long long>(got));
  }
}

GridSpec lab_grid() {
  GridSpec grid;
  grid.servers = {sim::ServerKind::kLoc, sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kLaboratory};
  grid.poll_periods = {16.0};
  grid.schedules = schedules();
  grid.estimators = specs({"robust", "swntp", "offline(split=shifts)"});
  grid.duration = kDuration;
  grid.master_seed = 20041025;
  return grid;
}

std::vector<ScenarioResult> run_grid(const GridSpec& grid, bool streaming) {
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = kWarmup;
  options.streaming_reduction = streaming;
  return ScenarioSweep(grid).run(options);
}

TEST(ReductionGolden, ExactReductionOfEveryLabCellIsPinned) {
  expect_digests(run_grid(lab_grid(), false), {
      0x81888d80e10012e1ull, 0xba2c3425f892b61eull, 0xe67c6f2fec579a73ull,
      0x53109331504f6204ull, 0x8a27003a8a3db7a1ull, 0xaff7048bd1b48b08ull,
      0x9ec568938af0c987ull, 0x508c72bbe30e316full, 0xb3d7e37425333c70ull,
      0xa0adcdcf05b76229ull, 0x4b94b137570a6736ull, 0x52086700af61aba4ull,
      0x842f880230157e80ull, 0xb20d5848a4f4603dull, 0x6558041ef52a04f2ull,
      0x519d19b9c4b20a35ull, 0xaca5819ec75deb67ull, 0x9c9c3010d899120bull,
  });
}

TEST(ReductionGolden, StreamingReductionOfEveryLabCellIsPinned) {
  expect_digests(run_grid(lab_grid(), true), {
      0xd17f491fdc9d42c2ull, 0x946b6990baaaf31dull, 0x90cc9024fc8944f5ull,
      0xc909721ab89ef18full, 0xce20616ab751beddull, 0xaad4b41dd77036b9ull,
      0x414c76a705a2e55eull, 0x07892c2475a143ceull, 0x6888927dba2837c4ull,
      0xbbcde631b00c850cull, 0x4e441f4c7bb5989bull, 0xd28babe71a193607ull,
      0x796449a5f3e3b84bull, 0x1fd76614d8f88aa4ull, 0x4692f6fb24befe17ull,
      0xbe47342e8b77d750ull, 0xe781f01a1219dc88ull, 0x3b5493e1677bbbd8ull,
  });
}

TEST(ReductionGolden, ExactReductionOfACongestedFleetCellIsPinned) {
  // Pooled population summaries over four clients, ADEV from client 0.
  GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kLaboratory};
  grid.poll_periods = {16.0};
  grid.fleets = parse_fleet_specs("fleet(n=4,shared_congestion=1)");
  grid.estimators = specs({"robust", "swntp"});
  grid.duration = kDuration;
  grid.master_seed = 20041025;
  expect_digests(run_grid(grid, false),
                 {0xabe71b2e415ab928ull, 0x2d95680768f3560aull});
}

TEST(ReductionGolden, ExactReductionOfARelativeOnlyTraceCellIsPinned) {
  // A reference-free trace: the clock-error summary stays empty and both
  // ADEV scales run over the tracking residual θ̂ − θ̂_naive.
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.poll_period = 16.0;
  scenario.duration = 12 * duration::kHour;
  scenario.seed = 20041025;
  scenario.events.add_outage(4 * duration::kHour,
                             4 * duration::kHour + 30 * duration::kMinute);
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.poll_period);
  config.discard_warmup = kWarmup;
  config.warmup_policy = harness::WarmupPolicy::kObservable;
  sim::Testbed testbed(scenario);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(config);
  session.run(testbed);

  trace::TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kRelativeOnly;
  meta.nominal_period = testbed.nominal_period();
  meta.poll_period = scenario.poll_period;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      "tscclock_reduction_golden_relative.trace";
  trace::write_trace(path.string(), meta, session.trace());

  // A fixed name keeps the temporary path out of the digested line.
  SweepScenario cell;
  cell.name = "trace:relative";
  cell.trace_path = path.string();
  ThreadPool pool(2);
  const auto results = run_scenario_multi(
      cell, specs({"offline", "offline(split=shifts)"}), 0, {}, false, {},
      &pool);
  std::filesystem::remove(path);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.relative_only);
    EXPECT_EQ(result.clock_error.count, 0u);
    EXPECT_GT(result.adev_long, 0.0);
  }
  expect_digests(results, {0x2e4d74a883759ffeull, 0xcc4881158b6578edull});
}

}  // namespace
}  // namespace tscclock::sweep
