// Shared pieces of the benchmark driver: the metric sets it declares, the
// report a workload fills, the results digest and output checks every
// workload runs, the timing loop, and the machine fingerprint.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/clock.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/session.hpp"
#include "harness/sinks.hpp"
#include "spans.hpp"
#include "sweep/scenario_grid.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

namespace core = tscclock::core;
namespace harness = tscclock::harness;
namespace sim = tscclock::sim;
namespace sweep = tscclock::sweep;

/// One reported metric; BENCHMARK.json declares the same names and units.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics of an untraced run (--trace 0), the same on every workload.
const std::vector<MetricDef>& end_to_end_metrics();

/// Metrics of a traced run (--trace 1), the same on every workload. A layer
/// that a workload's path never enters reads 0 there.
const std::vector<MetricDef>& per_layer_metrics();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir = ".";  ///< where trace_replay writes its file
};

/// What one run reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed checks: the run is incorrect
  std::vector<std::string> notes;   ///< informational lines
  std::map<std::string, double> values;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void set(const std::string& name, double value) { values[name] = value; }
};

using Workload = Report (*)(const RunOptions&);
Report run_sweep_grid(const RunOptions& options);
Report run_fleet_congested(const RunOptions& options);
Report run_trace_replay(const RunOptions& options);

// -- Workload definitions ------------------------------------------------------

inline constexpr double kMonth = 30 * 86400.0;
/// The sweep's warm-up cut (SweepOptions::discard_warmup's default).
inline constexpr double kWarmup = 3600.0;
/// Rows per generate_batch call: the chunk the library's batched drives
/// (ClockSession, MultiEstimatorSession and FleetSession run_batched) use.
inline constexpr std::size_t kChunk = 1024;
/// ADEV scale factors every sweep lane reduces with.
inline constexpr std::size_t kAdevShort = 16;
inline constexpr std::size_t kAdevLong = 256;
/// Timed units per run at least, whatever --seconds says.
inline constexpr int kMinUnits = 3;
/// Set-up calls per timed block when one set-up takes under a millisecond.
inline constexpr int kSetupReps = 50;

/// The sweep CLI's `stress` schedule (tools/sweep_main.cpp): a 20-minute
/// outage at 25 %, a ServerLoc switch at 50 % and a 10-minute 150 ms server
/// fault at 55 % of the duration.
sweep::ScheduleVariant stress_schedule(double length);

/// The drive configuration run_scenario_multi gives every simulated lane.
harness::SessionConfig sweep_session_config(double poll_period);

// -- Measurement ---------------------------------------------------------------

double now_s();
double median(std::vector<double> values);
/// Peak resident set of this process so far [MB] (getrusage).
double peak_rss_mb();
/// CPUs this process may run on (what nproc prints).
unsigned available_cpus();

/// A run stops starting units once it has used this many times `seconds`.
inline constexpr double kMaxOverrun = 1.25;

/// Call `unit` back to back a fixed number of times: `seconds` over
/// `nominal_unit_s`, the time one unit takes with its probes and set-up
/// block at the baseline's speed (at least kMinUnits). The count does not
/// depend on how fast the units run, so both sides of a comparison take
/// their median over the same number of units. Only a host or a change slow
/// enough to use up kMaxOverrun × `seconds` cuts the run short.
void run_units(double seconds, double nominal_unit_s,
               const std::function<void()>& unit);

/// The host-speed probe's wall time on the host the benchmark was tuned on
/// (a 4-vCPU Intel Xeon VM in its usual state).
inline constexpr double kProbeNominalS = 0.1;
/// Probe working sets, in doubles per thread: cache-resident for compute-bound
/// units, a few MB for units that stream through large buffers.
inline constexpr std::size_t kProbeSmall = std::size_t{1} << 12;
inline constexpr std::size_t kProbeLarge = std::size_t{1} << 17;

/// Wall seconds of the host-speed probe: fixed work of the kind the
/// workloads do (hexfloat formatting and parsing, a sort) that calls nothing
/// in the library, on `threads` threads at once, each over `working_set`
/// doubles at a time. It runs in a child process, so its memory never counts
/// in peak_rss_mb.
double probe_s(unsigned threads, std::size_t working_set);

/// Times a workload's units against the host-speed probe. On a shared host
/// the same unit's wall time moves by over 20 % between runs, and a program
/// change never touches the probe, so each unit's rate is divided by the
/// host speed the probe measured right before and right after it: the rate
/// the unit would have had on a host that runs the probe in kProbeNominalS.
class RateMeter {
 public:
  /// `threads`: how many threads the units keep busy (the probe runs on as
  /// many); `working_set`: kProbeSmall or kProbeLarge, the one closer to
  /// the units' memory use.
  RateMeter(unsigned threads, std::size_t working_set)
      : threads_(threads), working_set_(working_set) {}
  /// Run the probe: the host's speed now against nominal (kProbeNominalS
  /// over the probe's wall time; below 1 is slower).
  double probe();
  /// Time one call of `unit`, which returns the work it did, between two
  /// probes.
  void time(const std::function<double()>& unit);
  /// The speed the latest probe measured.
  [[nodiscard]] double last_speed() const { return speeds_.back(); }
  /// The metric: the median over units of work per second at nominal speed.
  [[nodiscard]] double rate() const;
  /// Work per wall second of each unit, unscaled.
  [[nodiscard]] const std::vector<double>& wall_rates() const { return wall_; }
  /// Every probe's speed, in the order they ran.
  [[nodiscard]] const std::vector<double>& speeds() const { return speeds_; }

 private:
  unsigned threads_;
  std::size_t working_set_;
  std::vector<double> wall_;
  std::vector<double> scaled_;
  std::vector<double> speeds_;
};

/// Times a workload's set-up in blocks of `reps` back-to-back calls: one
/// block is one sample, the mean call time over the block scaled to nominal
/// host speed by the probe that ran just before it. The workloads time a
/// block before the timed region and one after every timed unit, so the
/// samples spread over the whole run instead of one moment of it, and a
/// sub-millisecond set-up is timed as one tens-of-milliseconds block.
class SetupTimer {
 public:
  SetupTimer(int reps, std::function<void()> setup)
      : reps_(reps), setup_(std::move(setup)) {}
  /// Time one block; `speed` is RateMeter's latest probe.
  void block(double speed);
  /// Median over the blocks so far of the scaled mean seconds per set-up.
  [[nodiscard]] double median_s() const;
  /// Every block's mean seconds per set-up, unscaled.
  [[nodiscard]] const std::vector<double>& wall_samples() const {
    return wall_;
  }

 private:
  int reps_;
  std::function<void()> setup_;
  std::vector<double> wall_;
  std::vector<double> scaled_;
};

// -- Results -------------------------------------------------------------------

/// FNV-1a over the cells' result-dump lines (sweep::serialize_result: every
/// field, doubles in hexfloat): equal digests mean bit-identical cells.
std::uint64_t results_digest(std::span<const sweep::ScenarioResult> results);
std::string hex64(std::uint64_t value);

/// run_scenario_multi with ScenarioSweep::run's containment: a cell that
/// throws becomes FAILED rows carrying the exception text.
std::vector<sweep::ScenarioResult> run_cell(
    const sweep::SweepScenario& scenario,
    std::span<const harness::EstimatorSpec> estimators,
    bool streaming_reduction);

/// The identity fields of a cell, as run_scenario_multi fills them.
sweep::ScenarioResult cell_result(const sweep::SweepScenario& scenario,
                                  const harness::EstimatorSpec& estimator);
/// The counters run_scenario_multi copies from a lane's summary.
void fill_summary(sweep::ScenarioResult& result,
                  const harness::SessionSummary& summary);
/// The error summaries and ADEV points of a lane reduction.
void fill_reduction(sweep::ScenarioResult& result,
                    const harness::ReducerSink::Reduction& reduction);

/// Count attempted and FAILED cells.
void count_cells(Report& report,
                 std::span<const sweep::ScenarioResult> results);
/// Output checks: every cell that ran evaluated exchanges and reduced them
/// to finite clock-error statistics. FAILED cells are listed, not dropped.
void check_cells(Report& report,
                 std::span<const sweep::ScenarioResult> results);

/// Accuracy of one estimator lane over its cells, in µs: the median of
/// |median clock error|, the median of the tail max(|p01|, |p99|), and the
/// worst such tail. The worst tail is printed, not a metric: one extreme
/// cell moves it by over 10 % between seeds.
struct Accuracy {
  double median_us = 0;
  double tail_us = 0;
  double worst_us = 0;
  std::size_t cells = 0;
};
Accuracy lane_accuracy(std::span<const sweep::ScenarioResult> results,
                       const std::string& label);

/// The end-to-end metrics: exch_per_s is the meter's rate, setup_s the
/// set-up timer's median, peak RSS is read here, at the end of the run.
void set_end_to_end(Report& report, const RateMeter& meter,
                    const SetupTimer& setup, const Accuracy& accuracy);

/// Decision counters of robust lanes, summed (the core.* counts).
struct RobustCounts {
  std::uint64_t packets = 0;
  std::uint64_t rate_accepted = 0;
  std::uint64_t level_shifts = 0;
  std::uint64_t sanity_triggers = 0;
  void add(const core::ClockStatus& status);
};
void set_robust_counts(Report& report, const RobustCounts& counts);

/// Traced-run bookkeeping every workload reports: the traced region's wall
/// time, its residual beyond the spans' self times (unclamped), and the
/// tracing overhead as the share of exch_per_s lost against an untraced
/// pass over the same work (1 − untraced wall / traced wall).
void set_accounting(Report& report, const SpanTracer& tracer,
                    double traced_wall_s, double untraced_wall_s);

// -- Machine fingerprint -------------------------------------------------------

struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  bool sanitized = false;
  /// Optimized and unsanitized: numbers from other builds are no baseline.
  bool valid_baseline = false;
  std::string why_invalid;
};

Fingerprint machine_fingerprint();
std::string to_json(const Fingerprint& fingerprint);
std::string json_string(const std::string& text);

}  // namespace perfbench
