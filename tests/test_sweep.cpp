// Tests for the scenario sweep engine: grid expansion, identity-based seed
// derivation, the work-stealing pool, and the determinism contract (results
// bit-identical across thread counts for a fixed master seed).
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "harness/sinks.hpp"
#include "sweep/scenario_grid.hpp"

namespace tscclock::sweep {
namespace {

/// Small, fast grid: 2 servers × 1 environment × 2 poll periods = 4
/// scenarios of one simulated hour each.
GridSpec small_grid() {
  GridSpec grid;
  grid.servers = {sim::ServerKind::kLoc, sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0, 32.0};
  grid.duration = duration::kHour;
  grid.master_seed = 20040704;
  return grid;
}

// -- Grid expansion --------------------------------------------------------

TEST(ScenarioGrid, ExpandsFullCartesianProduct) {
  GridSpec grid;  // default: 3 servers × 2 envs × 2 polls × 1 schedule
  const auto scenarios = expand_grid(grid);
  ASSERT_EQ(scenarios.size(), 12u);
  ASSERT_EQ(scenarios.size(), grid.size());

  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const auto& s : scenarios) {
    names.insert(s.name);
    seeds.insert(s.config.seed);
    EXPECT_EQ(s.index, names.size() - 1) << "indices follow grid order";
  }
  EXPECT_EQ(names.size(), 12u) << "scenario names are unique";
  EXPECT_EQ(seeds.size(), 12u) << "scenario seeds are unique";
}

TEST(ScenarioGrid, SeedIndependentOfEnumerationOrder) {
  GridSpec forward = small_grid();
  GridSpec reversed = small_grid();
  std::reverse(reversed.servers.begin(), reversed.servers.end());
  std::reverse(reversed.poll_periods.begin(), reversed.poll_periods.end());

  const auto a = expand_grid(forward);
  const auto b = expand_grid(reversed);
  ASSERT_EQ(a.size(), b.size());

  // Same identity → same seed, wherever it lands in the expansion.
  for (const auto& sa : a) {
    const auto it = std::find_if(b.begin(), b.end(), [&](const auto& sb) {
      return sb.name == sa.name;
    });
    ASSERT_NE(it, b.end()) << "scenario " << sa.name << " lost on reorder";
    EXPECT_EQ(it->config.seed, sa.config.seed) << sa.name;
  }
}

TEST(ScenarioGrid, SeedDependsOnMasterSeedAndIdentity) {
  EXPECT_NE(scenario_seed(1, "ServerInt/machine-room/poll16/steady"),
            scenario_seed(2, "ServerInt/machine-room/poll16/steady"));
  EXPECT_NE(scenario_seed(1, "ServerInt/machine-room/poll16/steady"),
            scenario_seed(1, "ServerInt/machine-room/poll64/steady"));
  // Stable across calls (pure function of its inputs).
  EXPECT_EQ(scenario_seed(42, "x"), scenario_seed(42, "x"));
}

TEST(ScenarioGrid, PollJitterClampedForShortPeriods) {
  GridSpec grid = small_grid();
  grid.poll_periods = {1.0};
  grid.poll_jitter = 0.6;  // would violate the Testbed jitter contract
  const auto scenarios = expand_grid(grid);
  for (const auto& s : scenarios) {
    EXPECT_LT(s.config.poll_jitter, s.config.poll_period / 2);
    sim::Testbed tb(s.config);  // must not trip the contract check
    EXPECT_TRUE(tb.next().has_value());
  }
}

TEST(ScenarioGrid, RejectsSubSecondPollPeriods) {
  // Polling faster than the paths' heavy-tailed delay scale can schedule a
  // poll before the previous exchange arrived, breaking the oscillator's
  // monotonic-read contract mid-trace — rejected up front instead.
  GridSpec grid = small_grid();
  grid.poll_periods = {0.5};
  EXPECT_THROW(expand_grid(grid), ContractViolation);
}

TEST(ScenarioGrid, RejectsDuplicateIdentities) {
  GridSpec grid = small_grid();
  grid.servers = {sim::ServerKind::kLoc, sim::ServerKind::kLoc};
  EXPECT_THROW(expand_grid(grid), ContractViolation);
}

// -- Thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.submit([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.wait_idle();
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> out(257, 0);
  parallel_for(pool, out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::count(out.begin(), out.end(), 1),
            static_cast<long>(out.size()));
}

TEST(ThreadPool, NestedSubmissionCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &total] {
      total.fetch_add(1);
      pool.submit([&total] { total.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, TaskExceptionRethrownFromWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&completed, i] {
      if (i == 3) throw std::runtime_error("scenario 3 failed");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(completed.load(), 7) << "remaining tasks still ran";
  // The pool stays usable and the error is not re-reported.
  pool.submit([&completed] { completed.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPool, SingleThreadedPoolWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> total{0};
  parallel_for(pool, 64, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, AutoSizeCountsTheAffinityMask) {
  // Pin the calling thread to the first CPU it may run on, as taskset
  // would; a zero-sized pool then has exactly one worker.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof original, &original), 0);
  int first = 0;
  while (!CPU_ISSET(first, &original)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  std::size_t pinned = 0;
  {
    ThreadPool pool(0);
    pinned = pool.thread_count();
    std::atomic<int> ran{0};
    parallel_for(pool, 8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof original, &original), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(ThreadPool(0).thread_count(),
            static_cast<std::size_t>(CPU_COUNT(&original)));
}

TEST(ThreadPool, NestedParallelForCompletesOnEveryPoolSize) {
  // A parallel_for inside a pool task must not wait for workers that are
  // all busy in the outer loop: on one worker, the caller runs every inner
  // index itself.
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    std::vector<std::vector<int>> hits(6, std::vector<int>(9, 0));
    parallel_for(pool, hits.size(), [&](std::size_t i) {
      parallel_for(pool, hits[i].size(), [&](std::size_t j) { ++hits[i][j]; });
    });
    for (const auto& row : hits)
      EXPECT_EQ(std::count(row.begin(), row.end(), 1),
                static_cast<long>(row.size()));

    // The same from a task submitted directly, drained by wait_idle.
    std::atomic<int> total{0};
    pool.submit([&] {
      parallel_for(pool, 32, [&](std::size_t) { total.fetch_add(1); });
    });
    pool.wait_idle();
    EXPECT_EQ(total.load(), 32);
  }
}

TEST(ThreadPool, ParallelForRethrowsTheLowestThrowingIndex) {
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    std::vector<int> ran(16, 0);
    try {
      parallel_for(pool, ran.size(), [&](std::size_t i) {
        ran[i] = 1;
        if (i == 11 || i == 2 || i == 7)
          throw std::runtime_error("index " + std::to_string(i));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 2");
    }
    EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 16) << "every index ran";
    EXPECT_NO_THROW(pool.wait_idle()) << "the group's error is not the pool's";
  }
}

TEST(ThreadPool, ParallelForExceptionStaysInItsOwnGroup) {
  // Two groups in flight at once, as two fleet cells of one sweep: the
  // failing group's caller sees its own error, the other finishes cleanly.
  ThreadPool pool(4);
  std::vector<std::string> outcome(2);
  parallel_for(pool, outcome.size(), [&](std::size_t cell) {
    try {
      parallel_for(pool, 24, [&](std::size_t i) {
        if (cell == 0 && i % 5 == 3)
          throw std::runtime_error("cell 0 index " + std::to_string(i));
        std::this_thread::yield();
      });
      outcome[cell] = "ok";
    } catch (const std::exception& e) {
      outcome[cell] = e.what();
    }
  });
  EXPECT_EQ(outcome[0], "cell 0 index 3");
  EXPECT_EQ(outcome[1], "ok");
  EXPECT_NO_THROW(pool.wait_idle());
}

// -- Determinism contract --------------------------------------------------

void expect_bit_identical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.polls, b.polls);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.exchanges, b.exchanges);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.final_status.server_changes, b.final_status.server_changes);
  // Bit-level double equality, not EXPECT_NEAR: the contract is that the
  // schedule cannot perturb a single ULP of any reduced value.
  EXPECT_EQ(a.clock_error.mean, b.clock_error.mean);
  EXPECT_EQ(a.clock_error.stddev, b.clock_error.stddev);
  EXPECT_EQ(a.clock_error.percentiles.p01, b.clock_error.percentiles.p01);
  EXPECT_EQ(a.clock_error.percentiles.p50, b.clock_error.percentiles.p50);
  EXPECT_EQ(a.clock_error.percentiles.p99, b.clock_error.percentiles.p99);
  EXPECT_EQ(a.offset_error.mean, b.offset_error.mean);
  EXPECT_EQ(a.offset_error.percentiles.p50, b.offset_error.percentiles.p50);
  EXPECT_EQ(a.adev_short, b.adev_short);
  EXPECT_EQ(a.adev_long, b.adev_long);
  EXPECT_EQ(a.final_status.packets_processed, b.final_status.packets_processed);
  EXPECT_EQ(a.final_status.period, b.final_status.period);
  EXPECT_EQ(a.final_status.offset, b.final_status.offset);
}

TEST(ScenarioSweep, BitIdenticalAcrossThreadCounts) {
  ScenarioSweep engine(small_grid());
  SweepOptions options;
  options.discard_warmup = 20 * duration::kMinute;

  std::vector<std::size_t> thread_counts = {1, 4};
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw > 1 && hw != 4) thread_counts.push_back(hw);

  options.threads = thread_counts.front();
  const auto reference = engine.run(options);
  ASSERT_EQ(reference.size(), engine.scenarios().size());

  for (std::size_t k = 1; k < thread_counts.size(); ++k) {
    options.threads = thread_counts[k];
    const auto other = engine.run(options);
    ASSERT_EQ(other.size(), reference.size())
        << "thread count " << thread_counts[k];
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_bit_identical(reference[i], other[i]);
    }
  }
}

TEST(ScenarioSweep, StreamingDefaultBitIdenticalAcrossThreadCounts) {
  // The sweep CLI now defaults to the streaming reduction; the determinism
  // contract must hold for it exactly as for the exact reduction, across
  // thread counts, over the batched drive.
  ScenarioSweep engine(small_grid());
  SweepOptions options;
  options.discard_warmup = 20 * duration::kMinute;
  options.streaming_reduction = true;

  options.threads = 1;
  const auto reference = engine.run(options);
  ASSERT_EQ(reference.size(), engine.scenarios().size());

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    options.threads = threads;
    const auto other = engine.run(options);
    ASSERT_EQ(other.size(), reference.size()) << "thread count " << threads;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_bit_identical(reference[i], other[i]);
    }
  }

  // Counts, means, stddevs and ADEV of the streaming reduction match the
  // exact reduction bit-for-bit (only percentiles are P²-approximated).
  options.threads = 2;
  options.streaming_reduction = false;
  const auto exact = engine.run(options);
  ASSERT_EQ(exact.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].evaluated, exact[i].evaluated);
    EXPECT_EQ(reference[i].clock_error.mean, exact[i].clock_error.mean);
    EXPECT_EQ(reference[i].clock_error.stddev, exact[i].clock_error.stddev);
    EXPECT_EQ(reference[i].offset_error.mean, exact[i].offset_error.mean);
    EXPECT_EQ(reference[i].adev_short, exact[i].adev_short);
    EXPECT_EQ(reference[i].adev_long, exact[i].adev_long);
  }
}

TEST(ScenarioSweep, ResultsIndexedInGridOrder) {
  ScenarioSweep engine(small_grid());
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = 20 * duration::kMinute;
  const auto results = engine.run(options);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].scenario_index, i);
    EXPECT_EQ(results[i].name, engine.scenarios()[i].name);
  }
}

// -- Scenario pipeline behaviours -----------------------------------------

TEST(ScenarioSweep, OutageScheduleSkipsPolls) {
  GridSpec grid = small_grid();
  grid.servers = {sim::ServerKind::kInt};
  grid.poll_periods = {16.0};
  ScheduleVariant outage;
  outage.name = "outage";
  outage.events.add_outage(1200.0, 2100.0);  // 900 s ≈ 56 poll slots
  grid.schedules = {outage};

  ScenarioSweep engine(grid);
  SweepOptions options;
  options.threads = 1;
  options.discard_warmup = 0;
  const auto results = engine.run(options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GE(results[0].skipped, 50u);
  EXPECT_LE(results[0].skipped, 60u);
  EXPECT_EQ(results[0].polls, results[0].skipped + results[0].exchanges);
}

TEST(ScenarioSweep, ServerSwitchesReachTheClock) {
  GridSpec grid = small_grid();
  grid.servers = {sim::ServerKind::kInt};
  grid.poll_periods = {16.0};
  ScheduleVariant switching;
  switching.name = "switch";
  switching.server_switches = {{1200.0, sim::ServerKind::kLoc},
                               {2400.0, sim::ServerKind::kExt}};
  grid.schedules = {switching};

  ScenarioSweep engine(grid);
  SweepOptions options;
  options.threads = 1;
  options.discard_warmup = 0;
  const auto results = engine.run(options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].final_status.server_changes, 2u)
      << "packet-layer changes must be forwarded to TscNtpClock";
}

TEST(ScenarioSweep, WarmupCoveringWholeTraceYieldsEmptySummaries) {
  GridSpec grid = small_grid();
  grid.servers = {sim::ServerKind::kLoc};
  grid.poll_periods = {16.0};
  ScenarioSweep engine(grid);
  SweepOptions options;
  options.threads = 1;
  options.discard_warmup = 2 * grid.duration;  // discards every point
  const auto results = engine.run(options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].evaluated, 0u);
  EXPECT_EQ(results[0].clock_error.count, 0u);
  EXPECT_EQ(results[0].adev_short, 0.0);
  // Reporting an all-discarded sweep must not crash, and must not print the
  // zero-initialized statistics as if they were a perfect run.
  std::ostringstream os;
  print_sweep_report(os, results);
  EXPECT_NE(os.str().find("Aggregate by server"), std::string::npos);
  EXPECT_NE(os.str().find("n/a"), std::string::npos);
}

TEST(ScenarioSweep, ReportPrintsEveryScenarioAndAggregates) {
  ScenarioSweep engine(small_grid());
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = 20 * duration::kMinute;
  const auto results = engine.run(options);

  std::ostringstream os;
  print_sweep_report(os, results);
  const std::string report = os.str();
  for (const auto& scenario : engine.scenarios()) {
    EXPECT_NE(report.find(scenario.name), std::string::npos) << scenario.name;
  }
  EXPECT_NE(report.find("Aggregate by server"), std::string::npos);
  EXPECT_NE(report.find("Aggregate by environment"), std::string::npos);
}

// -- Estimator axis --------------------------------------------------------

GridSpec estimator_grid() {
  GridSpec grid = small_grid();
  grid.poll_periods = {16.0};  // 2 scenarios × 4 estimators
  // Deliberately includes the non-causal replay family: the whole point of
  // the replay lane is that offline rows ride the same drain, seed and
  // reduction as the online ones, so every axis property proven below
  // (shared seeds, thread-count determinism, robust-row invariance) must
  // hold with it present.
  const auto& registry = harness::estimator_registry();
  grid.estimators = {registry.parse("robust"), registry.parse("swntp"),
                     registry.parse("naive"), registry.parse("offline")};
  return grid;
}

/// A variant axis: the full robust algorithm, a parameter-ablated variant
/// of it, and a parameterized replay variant — the spec shapes the registry
/// redesign exists for.
GridSpec variant_grid() {
  GridSpec grid = small_grid();
  grid.poll_periods = {16.0};
  const auto& registry = harness::estimator_registry();
  grid.estimators = {registry.parse("robust"),
                     registry.parse("robust(use_local_rate=0)"),
                     registry.parse("offline(split=shifts)")};
  return grid;
}

TEST(ScenarioSweep, EstimatorAxisSharesEachScenariosSeed) {
  ScenarioSweep engine(estimator_grid());
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = 20 * duration::kMinute;
  const auto results = engine.run(options);
  const std::size_t lanes = engine.grid().estimators.size();
  ASSERT_EQ(results.size(), engine.scenarios().size() * lanes);

  for (std::size_t i = 0; i < engine.scenarios().size(); ++i) {
    for (std::size_t e = 0; e < lanes; ++e) {
      const auto& r = results[i * lanes + e];
      // Scenario-major ordering, estimator minor; every estimator of a
      // scenario scores the scenario's one seed — the axis never reseeds.
      EXPECT_EQ(r.scenario_index, i);
      EXPECT_EQ(r.name, engine.scenarios()[i].name);
      EXPECT_EQ(r.seed, engine.scenarios()[i].config.seed);
      EXPECT_EQ(r.estimator, engine.grid().estimators[e]);
      // All estimators saw the identical exchange stream.
      EXPECT_EQ(r.exchanges, results[i * lanes].exchanges);
      EXPECT_EQ(r.lost, results[i * lanes].lost);
      EXPECT_EQ(r.evaluated, results[i * lanes].evaluated);
    }
  }
}

TEST(ScenarioSweep, EstimatorAxisBitIdenticalAcrossThreadCounts) {
  ScenarioSweep engine(estimator_grid());
  SweepOptions options;
  options.discard_warmup = 20 * duration::kMinute;

  options.threads = 1;
  const auto reference = engine.run(options);
  options.threads = 4;
  const auto other = engine.run(options);
  ASSERT_EQ(other.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].estimator, other[i].estimator);
    EXPECT_EQ(reference[i].steps, other[i].steps);
    expect_bit_identical(reference[i], other[i]);
  }
}

TEST(ScenarioSweep, RobustRowsUnchangedByAddingBaselineEstimators) {
  // Fanning more estimators into the session must not perturb the robust
  // lane: the estimators share the exchange stream, not any scoring state.
  GridSpec robust_only = estimator_grid();
  robust_only.estimators = {harness::EstimatorSpec{"robust", {}}};
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = 20 * duration::kMinute;
  const auto solo = ScenarioSweep(robust_only).run(options);
  const auto multi = ScenarioSweep(estimator_grid()).run(options);
  const std::size_t lanes = estimator_grid().estimators.size();
  ASSERT_EQ(multi.size(), solo.size() * lanes);
  for (std::size_t i = 0; i < solo.size(); ++i) {
    expect_bit_identical(solo[i], multi[i * lanes]);
  }
}

TEST(ScenarioSweep, MultiEstimatorReportHasComparisonTable) {
  ScenarioSweep engine(estimator_grid());
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = 20 * duration::kMinute;
  const auto results = engine.run(options);
  std::ostringstream os;
  print_sweep_report(os, results);
  const std::string report = os.str();
  EXPECT_NE(report.find("Estimator comparison"), std::string::npos);
  EXPECT_NE(report.find("robust"), std::string::npos);
  EXPECT_NE(report.find("swntp"), std::string::npos);
  EXPECT_NE(report.find("naive"), std::string::npos);
  EXPECT_NE(report.find("offline"), std::string::npos)
      << "replay lanes must appear in the head-to-head tables";
}

TEST(ScenarioSweep, OfflineReplayLaneScoresTheSameEvaluatedSet) {
  ScenarioSweep engine(estimator_grid());
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = 20 * duration::kMinute;
  const auto results = engine.run(options);
  const std::size_t lanes = engine.grid().estimators.size();
  ASSERT_EQ(lanes, 4u);
  for (std::size_t i = 0; i < engine.scenarios().size(); ++i) {
    const auto& robust = results[i * lanes + 0];
    const auto& offline = results[i * lanes + 3];
    ASSERT_EQ(offline.estimator.label(), "offline");
    ASSERT_FALSE(offline.failed);
    // Scored from the same Testbed drain: identical counters, zero steps.
    EXPECT_EQ(offline.exchanges, robust.exchanges);
    EXPECT_EQ(offline.lost, robust.lost);
    EXPECT_EQ(offline.evaluated, robust.evaluated);
    EXPECT_EQ(offline.polls, robust.polls);
    EXPECT_EQ(offline.steps, 0u);
    // The smoother actually produced statistics over that set.
    ASSERT_GT(offline.evaluated, 0u);
    EXPECT_EQ(offline.clock_error.count, offline.evaluated);
    // Two-sided smoothing of a steady trace tracks at least to the same
    // order as the online robust clock (sub-ms on these scenarios).
    EXPECT_LT(std::fabs(offline.clock_error.percentiles.p50), 1e-3);
    // Replay clock error is the negated tracking error by construction.
    EXPECT_EQ(offline.clock_error.percentiles.p50,
              -offline.offset_error.percentiles.p50);
  }
}

TEST(ScenarioGrid, RejectsEmptyOrDuplicateEstimatorAxis) {
  GridSpec no_estimators = small_grid();
  no_estimators.estimators.clear();
  EXPECT_THROW(expand_grid(no_estimators), ContractViolation);
  GridSpec duplicates = small_grid();
  duplicates.estimators = {harness::EstimatorSpec{"robust", {}},
                           harness::EstimatorSpec{"robust", {}}};
  EXPECT_THROW(expand_grid(duplicates), ContractViolation);
  // Identity is the canonical label: `robust()` and a default-valued
  // override are the same lane as `robust`.
  GridSpec canonical_duplicates = small_grid();
  canonical_duplicates.estimators = {
      harness::estimator_registry().parse("robust"),
      harness::estimator_registry().parse("robust(use_local_rate=1)")};
  EXPECT_THROW(expand_grid(canonical_duplicates), ContractViolation);
}

// -- Spec golden: the registry lane vs the pre-redesign robust lane --------

TEST(SpecGolden, BareRobustSpecBitIdenticalToDirectRobustLane) {
  // The bare `robust` spec must reproduce the pre-redesign kRobust lane
  // exactly: same drive (ClockSession, observable warm-up cut), same
  // estimator (a TscNtpEstimator built directly from the scenario's
  // Params), same reduction (ReducerSink) — bit for bit.
  const auto scenarios = expand_grid(variant_grid());
  ASSERT_FALSE(scenarios.empty());
  const Seconds warmup = 20 * duration::kMinute;
  for (const auto& scenario : scenarios) {
    // Registry lane, exactly as the sweep runs it.
    const harness::EstimatorSpec robust[] = {{"robust", {}}};
    const auto via_spec =
        run_scenario_multi(scenario, robust, warmup).front();
    ASSERT_FALSE(via_spec.failed);
    EXPECT_EQ(via_spec.estimator.label(), "robust");

    // The pre-redesign lane, hand-rolled: no registry anywhere, driven one
    // exchange at a time.
    sim::Testbed testbed(scenario.config);
    harness::SessionConfig config;
    config.params =
        core::Params::for_poll_period(scenario.config.poll_period);
    config.discard_warmup = warmup;
    config.warmup_policy = harness::WarmupPolicy::kObservable;
    harness::ClockSession session(
        config, std::make_unique<harness::TscNtpEstimator>(
                    config.params, testbed.nominal_period()));
    harness::ReducerSink reducer(scenario.config.poll_period);
    session.add_sink(reducer);
    while (auto ex = testbed.next()) session.process(*ex);
    session.set_polls_enumerated(testbed.polls_enumerated());
    const auto& summary = session.summary();
    const auto reduction = reducer.reduce();

    EXPECT_EQ(via_spec.exchanges, summary.exchanges);
    EXPECT_EQ(via_spec.lost, summary.lost);
    EXPECT_EQ(via_spec.evaluated, summary.evaluated);
    ASSERT_GT(via_spec.evaluated, 0u);
    // Bit-level double equality: the registry indirection must not perturb
    // a single ULP of any reduced value.
    EXPECT_EQ(via_spec.clock_error.mean, reduction.clock_error.mean);
    EXPECT_EQ(via_spec.clock_error.stddev, reduction.clock_error.stddev);
    EXPECT_EQ(via_spec.clock_error.percentiles.p01,
              reduction.clock_error.percentiles.p01);
    EXPECT_EQ(via_spec.clock_error.percentiles.p50,
              reduction.clock_error.percentiles.p50);
    EXPECT_EQ(via_spec.clock_error.percentiles.p99,
              reduction.clock_error.percentiles.p99);
    EXPECT_EQ(via_spec.offset_error.percentiles.p50,
              reduction.offset_error.percentiles.p50);
    EXPECT_EQ(via_spec.adev_short, reduction.adev_short);
    EXPECT_EQ(via_spec.adev_long, reduction.adev_long);
    EXPECT_EQ(via_spec.final_status.period, summary.final_status.period);
    EXPECT_EQ(via_spec.final_status.offset, summary.final_status.offset);
  }
}

// -- Variant axis ----------------------------------------------------------

TEST(ScenarioSweep, VariantAxisSharesSeedsAndIsThreadCountDeterministic) {
  // The satellite contract of the redesign: an axis of parameterized
  // variants behaves exactly like the family axis — per-scenario seeds are
  // estimator-independent (the ablation shares its scenario's seed with the
  // full algorithm by construction) and results are bit-identical across
  // thread counts.
  ScenarioSweep engine(variant_grid());
  SweepOptions options;
  options.discard_warmup = 20 * duration::kMinute;

  options.threads = 1;
  const auto reference = engine.run(options);
  options.threads = 4;
  const auto other = engine.run(options);
  const std::size_t lanes = engine.grid().estimators.size();
  ASSERT_EQ(reference.size(), engine.scenarios().size() * lanes);
  ASSERT_EQ(other.size(), reference.size());
  for (std::size_t i = 0; i < engine.scenarios().size(); ++i) {
    for (std::size_t e = 0; e < lanes; ++e) {
      const auto& r = reference[i * lanes + e];
      EXPECT_EQ(r.seed, engine.scenarios()[i].config.seed)
          << "variant lanes must never reseed the scenario";
      EXPECT_EQ(r.estimator, engine.grid().estimators[e]);
      EXPECT_EQ(r.exchanges, reference[i * lanes].exchanges);
      EXPECT_EQ(r.lost, reference[i * lanes].lost);
      expect_bit_identical(r, other[i * lanes + e]);
    }
  }
}

TEST(ScenarioSweep, UseLocalRateAblationDiffersMeasurablyFromRobust) {
  // On a trace long enough for the quasi-local rate to engage (its window
  // is 5000 s), switching eq. (21)/(23) prediction off must change the
  // error summaries — while still sharing the scenario's seed and packets.
  GridSpec grid = small_grid();
  grid.servers = {sim::ServerKind::kInt};
  grid.poll_periods = {16.0};
  grid.duration = 6 * duration::kHour;
  const auto& registry = harness::estimator_registry();
  grid.estimators = {registry.parse("robust"),
                     registry.parse("robust(use_local_rate=0)")};
  ScenarioSweep engine(grid);
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = duration::kHour;
  const auto results = engine.run(options);
  ASSERT_EQ(results.size(), 2u);
  const auto& robust = results[0];
  const auto& ablated = results[1];
  ASSERT_FALSE(robust.failed);
  ASSERT_FALSE(ablated.failed);
  EXPECT_EQ(ablated.estimator.label(), "robust(use_local_rate=0)");
  // Same scenario, same seed, same packets…
  EXPECT_EQ(ablated.seed, robust.seed);
  EXPECT_EQ(ablated.exchanges, robust.exchanges);
  EXPECT_EQ(ablated.evaluated, robust.evaluated);
  ASSERT_GT(robust.evaluated, 0u);
  // …measurably different summaries.
  EXPECT_NE(ablated.offset_error.percentiles.p50,
            robust.offset_error.percentiles.p50);
  EXPECT_NE(ablated.clock_error.mean, robust.clock_error.mean);

  // Both lanes land in the per-cell comparison table, labelled by spec.
  std::ostringstream os;
  print_sweep_report(os, results);
  const std::string report = os.str();
  EXPECT_NE(report.find("Estimator comparison"), std::string::npos);
  EXPECT_NE(report.find("/ robust(use_local_rate=0)"), std::string::npos);
}

// -- Streaming reduction ---------------------------------------------------

TEST(ScenarioSweep, StreamingReductionMatchesExactWhereExactIsPinned) {
  GridSpec grid = small_grid();
  grid.poll_periods = {16.0};
  ScenarioSweep engine(grid);
  SweepOptions options;
  options.threads = 2;
  options.discard_warmup = 20 * duration::kMinute;
  const auto exact = engine.run(options);
  options.streaming_reduction = true;
  const auto streaming = engine.run(options);
  ASSERT_EQ(exact.size(), streaming.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const auto& a = exact[i];
    const auto& b = streaming[i];
    ASSERT_GT(a.evaluated, 0u);
    // Counts, moments and ADEV are computed by the same arithmetic in the
    // same order — bit-identical.
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.clock_error.count, b.clock_error.count);
    EXPECT_EQ(a.clock_error.mean, b.clock_error.mean);
    EXPECT_EQ(a.clock_error.stddev, b.clock_error.stddev);
    EXPECT_EQ(a.clock_error.min, b.clock_error.min);
    EXPECT_EQ(a.clock_error.max, b.clock_error.max);
    EXPECT_EQ(a.adev_short, b.adev_short);
    EXPECT_EQ(a.adev_long, b.adev_long);
    // Percentiles are P² approximations: close, not exact. Tolerance is a
    // fraction of the distribution's scale.
    const double scale =
        std::max(1e-7, a.clock_error.max - a.clock_error.min);
    EXPECT_NEAR(a.clock_error.percentiles.p50, b.clock_error.percentiles.p50,
                0.15 * scale)
        << a.name;
    EXPECT_NEAR(a.offset_error.percentiles.p50,
                b.offset_error.percentiles.p50, 0.15 * scale)
        << a.name;
  }
}

}  // namespace
}  // namespace tscclock::sweep
