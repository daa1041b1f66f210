#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time_types.hpp"
#include "sweep/result_io.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"exch_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"clock_err_med_us", "us"},
      {"clock_err_tail_us", "us"},
  };
  return metrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"sim.generate_s", "s"},
      {"sim.exch_per_s", "1/s"},
      {"sim.fleet_generate_s", "s"},
      {"sim.client_generate_s", "s"},
      {"sim.merge_s", "s"},
      {"harness.demux_s", "s"},
      {"core.robust_s", "s"},
      {"baseline.swntp_s", "s"},
      {"harness.reduce_s", "s"},
      {"harness.reduce_exact_s", "s"},
      {"harness.replay_emit_s", "s"},
      {"core.offline_s", "s"},
      {"core.offline_split_s", "s"},
      {"trace.write_s", "s"},
      {"trace.write_mb_per_s", "MB/s"},
      {"trace.bytes", "bytes"},
      {"trace.read_s", "s"},
      {"trace.read_rec_per_s", "1/s"},
      {"sweep.cell_s_p50", "s"},
      {"sweep.cell_s_max", "s"},
      {"sweep.speedup", "x"},
      {"sweep.idle_frac", "frac"},
      {"harness.rss_per_client_kb", "KB"},
      {"sim.exchanges", "count"},
      {"sim.lost", "count"},
      {"harness.evaluated", "count"},
      {"core.rate_accept_frac", "frac"},
      {"core.level_shifts", "count"},
      {"core.sanity_triggers", "count"},
      {"baseline.steps", "count"},
      {"core.offline_segments", "count"},
      {"core.poor_window_frac", "frac"},
      {"bench.tracing_overhead", "frac"},
      {"bench.traced_wall_s", "s"},
      {"bench.residual_s", "s"},
  };
  return metrics;
}

sweep::ScheduleVariant stress_schedule(double length) {
  namespace units = tscclock::duration;
  sweep::ScheduleVariant variant;
  variant.name = "stress";
  variant.events.add_outage(0.25 * length, 0.25 * length + 20 * units::kMinute);
  variant.events.add_server_fault(0.55 * length,
                                  0.55 * length + 10 * units::kMinute,
                                  150 * units::kMillisecond);
  variant.server_switches = {{length / 2, sim::ServerKind::kLoc}};
  return variant;
}

harness::SessionConfig sweep_session_config(double poll_period) {
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(poll_period);
  config.discard_warmup = kWarmup;
  config.warmup_policy = harness::WarmupPolicy::kObservable;
  return config;
}

// -- Measurement ---------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void run_units(double seconds, double nominal_unit_s,
               const std::function<void()>& unit) {
  const int units = std::max(
      kMinUnits, static_cast<int>(std::lround(seconds / nominal_unit_s)));
  const double start = now_s();
  for (int done = 0; done < units; ++done) {
    if (done >= kMinUnits && now_s() - start > kMaxOverrun * seconds) return;
    unit();
  }
}

namespace {

/// One thread's share of the host-speed probe: 2^17 doubles formatted as
/// hexfloats, parsed back and sorted, in rounds over `working_set` of them at
/// a time, so the work is the same whatever the working set. The same
/// values on every call.
double probe_work(std::size_t working_set) {
  constexpr std::size_t kTotal = std::size_t{1} << 17;
  std::vector<double> values(working_set);
  std::vector<double> parsed;
  std::string text;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  double checksum = 0;
  for (std::size_t round = 0; round < kTotal / working_set; ++round) {
    for (auto& value : values) {
      x ^= x << 13;  // xorshift64
      x ^= x >> 7;
      x ^= x << 17;
      value = static_cast<double>(x >> 11) * 0x1p-53;
    }
    text.clear();
    for (const double value : values) {
      // Sized, then formatted into a fresh heap string: two formatting
      // passes and an allocation per field, the mix kProbeNominalS was
      // calibrated with.
      const auto n =
          static_cast<std::size_t>(std::snprintf(nullptr, 0, "%a", value));
      std::string field(n + 1, '\0');
      // GCC cannot see that n + 1 bytes hold the text the first pass sized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-truncation"
      std::snprintf(field.data(), field.size(), "%a", value);
#pragma GCC diagnostic pop
      field.resize(n);
      text += field;
      text += '\t';
    }
    parsed.clear();
    for (const char* p = text.c_str(); *p != '\0';) {
      char* end = nullptr;
      parsed.push_back(std::strtod(p, &end));
      p = end + 1;
    }
    std::sort(parsed.begin(), parsed.end());
    checksum += parsed[working_set / 2];
  }
  return checksum;
}

/// The probe's work on `threads` threads at once; its wall seconds.
double run_probe(unsigned threads, std::size_t working_set) {
  std::vector<double> sums(std::max(1u, threads));
  const double start = now_s();
  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < sums.size(); ++t)
    workers.emplace_back(
        [&sums, t, working_set] { sums[t] = probe_work(working_set); });
  sums[0] = probe_work(working_set);
  for (auto& worker : workers) worker.join();
  const double elapsed = now_s() - start;
  static volatile double observed = 0;  // keeps the probe's work alive
  for (const double sum : sums) observed = observed + sum;
  return elapsed;
}

}  // namespace

double probe_s(unsigned threads, std::size_t working_set) {
  // The probe runs in a child process, so its memory never counts in this
  // process's peak RSS. The child times itself and reports over a pipe.
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("host-speed probe: no pipe");
  const pid_t child = ::fork();
  if (child == 0) {
    ::close(fds[0]);
    const double elapsed = run_probe(threads, working_set);
    const bool sent =
        ::write(fds[1], &elapsed, sizeof elapsed) == sizeof elapsed;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  double elapsed = 0;
  const bool received =
      child > 0 && ::read(fds[0], &elapsed, sizeof elapsed) == sizeof elapsed;
  ::close(fds[0]);
  int status = 0;
  while (child > 0 && ::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!received || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("host-speed probe failed");
  return elapsed;
}

double RateMeter::probe() {
  speeds_.push_back(kProbeNominalS / probe_s(threads_, working_set_));
  return speeds_.back();
}

void RateMeter::time(const std::function<double()>& unit) {
  const double before = probe();
  const double start = now_s();
  const double work = unit();
  const double rate = work / (now_s() - start);
  const double after = probe();
  wall_.push_back(rate);
  scaled_.push_back(rate / (0.5 * (before + after)));
}

double RateMeter::rate() const { return median(scaled_); }

void SetupTimer::block(double speed) {
  const double start = now_s();
  for (int i = 0; i < reps_; ++i) setup_();
  wall_.push_back((now_s() - start) / reps_);
  scaled_.push_back(wall_.back() * speed);
}

double SetupTimer::median_s() const { return median(scaled_); }

// -- Results -------------------------------------------------------------------

std::uint64_t results_digest(std::span<const sweep::ScenarioResult> results) {
  std::string text;
  for (const auto& result : results) {
    text += sweep::serialize_result(result);
    text += '\n';
  }
  return tscclock::fnv1a64(text);
}

std::string hex64(std::uint64_t value) {
  return tscclock::strfmt("%016llx", static_cast<unsigned long long>(value));
}

std::vector<sweep::ScenarioResult> run_cell(
    const sweep::SweepScenario& scenario,
    std::span<const harness::EstimatorSpec> estimators,
    bool streaming_reduction) {
  try {
    return sweep::run_scenario_multi(scenario, estimators, kWarmup, {},
                                     streaming_reduction);
  } catch (const std::exception& e) {
    std::vector<sweep::ScenarioResult> failed;
    for (const auto& spec : estimators) {
      failed.push_back(cell_result(scenario, spec));
      failed.back().failed = true;
      failed.back().error = e.what();
    }
    return failed;
  }
}

sweep::ScenarioResult cell_result(const sweep::SweepScenario& scenario,
                                  const harness::EstimatorSpec& estimator) {
  sweep::ScenarioResult result;
  result.scenario_index = scenario.index;
  result.name = scenario.name;
  result.seed = scenario.config.seed;
  result.server = scenario.config.server;
  result.environment = scenario.config.environment;
  result.estimator = estimator;
  return result;
}

void fill_summary(sweep::ScenarioResult& result,
                  const harness::SessionSummary& summary) {
  result.exchanges = summary.exchanges;
  result.lost = summary.lost;
  result.evaluated = summary.evaluated;
  result.polls = static_cast<std::size_t>(summary.polls_enumerated);
  result.skipped = result.polls - result.exchanges;
  result.final_status = summary.final_status;
}

void fill_reduction(sweep::ScenarioResult& result,
                    const harness::ReducerSink::Reduction& reduction) {
  result.clock_error = reduction.clock_error;
  result.offset_error = reduction.offset_error;
  result.adev_short_tau = reduction.adev_short_tau;
  result.adev_short = reduction.adev_short;
  result.adev_long_tau = reduction.adev_long_tau;
  result.adev_long = reduction.adev_long;
}

void count_cells(Report& report,
                 std::span<const sweep::ScenarioResult> results) {
  for (const auto& result : results) {
    ++report.attempted;
    if (result.failed) ++report.failed;
  }
}

void check_cells(Report& report,
                 std::span<const sweep::ScenarioResult> results) {
  for (const auto& r : results) {
    const std::string cell = r.name + " [" + r.estimator.label() + "]";
    if (r.failed) {
      report.notes.push_back("FAILED " + cell + ": " + r.error);
      continue;
    }
    report.check(r.evaluated > 0 && r.clock_error.count > 0,
                 cell + ": no evaluated exchanges");
    const auto& p = r.clock_error.percentiles;
    report.check(std::isfinite(r.clock_error.mean) && std::isfinite(p.p01) &&
                     std::isfinite(p.p50) && std::isfinite(p.p99),
                 cell + ": non-finite clock error statistics");
  }
}

Accuracy lane_accuracy(std::span<const sweep::ScenarioResult> results,
                       const std::string& label) {
  std::vector<double> medians;
  std::vector<double> tails;
  for (const auto& r : results) {
    if (r.failed || r.clock_error.count == 0 || r.estimator.label() != label)
      continue;
    const auto& p = r.clock_error.percentiles;
    medians.push_back(std::fabs(p.p50));
    tails.push_back(std::max(std::fabs(p.p01), std::fabs(p.p99)));
  }
  Accuracy accuracy;
  accuracy.cells = medians.size();
  if (!medians.empty()) {
    accuracy.median_us = tscclock::percentile(medians, 0.5) * 1e6;
    accuracy.tail_us = tscclock::percentile(tails, 0.5) * 1e6;
    accuracy.worst_us = *std::max_element(tails.begin(), tails.end()) * 1e6;
  }
  return accuracy;
}

namespace {

std::string min_median_max(const std::vector<double>& values, int digits) {
  return tscclock::strfmt(
      "min %.*g, median %.*g, max %.*g", digits,
      *std::min_element(values.begin(), values.end()), digits, median(values),
      digits, *std::max_element(values.begin(), values.end()));
}

}  // namespace

void set_end_to_end(Report& report, const RateMeter& meter,
                    const SetupTimer& setup, const Accuracy& accuracy) {
  report.check(accuracy.cells > 0, "no scored cell has clock-error data");
  report.set("exch_per_s", meter.rate());
  report.notes.push_back(tscclock::strfmt(
      "exch_per_s %.0f at nominal host speed (median over %zu timed units); "
      "per wall second: %s",
      meter.rate(), meter.wall_rates().size(),
      min_median_max(meter.wall_rates(), 7).c_str()));
  report.notes.push_back(tscclock::strfmt(
      "host speed over %zu probes (1 = the probe in %g s): %s",
      meter.speeds().size(), kProbeNominalS,
      min_median_max(meter.speeds(), 3).c_str()));
  report.set("setup_s", setup.median_s());
  report.notes.push_back(tscclock::strfmt(
      "setup_s %.6g at nominal host speed (median over %zu set-up blocks); "
      "wall: %s",
      setup.median_s(), setup.wall_samples().size(),
      min_median_max(setup.wall_samples(), 6).c_str()));
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("clock_err_med_us", accuracy.median_us);
  report.set("clock_err_tail_us", accuracy.tail_us);
  report.notes.push_back(tscclock::strfmt(
      "worst cell tail max(|p01|,|p99|) %.3f us over %zu scored cells",
      accuracy.worst_us, accuracy.cells));
}

void RobustCounts::add(const core::ClockStatus& status) {
  packets += status.packets_processed;
  rate_accepted += status.rate_accepted;
  level_shifts += status.upshifts + status.downshifts;
  sanity_triggers += status.offset_sanity_triggers;
}

void set_robust_counts(Report& report, const RobustCounts& counts) {
  report.set("core.rate_accept_frac",
             counts.packets > 0 ? static_cast<double>(counts.rate_accepted) /
                                      static_cast<double>(counts.packets)
                                : 0.0);
  report.set("core.level_shifts", static_cast<double>(counts.level_shifts));
  report.set("core.sanity_triggers",
             static_cast<double>(counts.sanity_triggers));
}

void set_accounting(Report& report, const SpanTracer& tracer,
                    double traced_wall_s, double untraced_wall_s) {
  const Accounting accounting = account(tracer, traced_wall_s);
  report.set("bench.traced_wall_s", accounting.wall_s);
  report.set("bench.residual_s", accounting.residual_s);
  report.set("bench.tracing_overhead", 1.0 - untraced_wall_s / traced_wall_s);
  report.notes.push_back(tscclock::strfmt(
      "traced wall %.6f s = span self time %.6f s + residual %.6f s; "
      "untraced pass over the same work %.6f s",
      accounting.wall_s, accounting.self_s, accounting.residual_s,
      untraced_wall_s));
}

// -- Machine fingerprint -------------------------------------------------------

namespace {

std::string trim(const std::string& text) {
  const auto first = text.find_first_not_of(' ');
  if (first == std::string::npos) return {};
  const auto last = text.find_last_not_of(' ');
  return text.substr(first, last - first + 1);
}

/// The CPU brand string from cpuid: the fingerprint reads no file.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    const std::string model = trim(brand);
    if (!model.empty()) return model;
  }
#endif
  return "unknown";
}

}  // namespace

Fingerprint machine_fingerprint() {
  Fingerprint fp;
  fp.cpu_model = cpu_model();
  fp.nproc = available_cpus();
#if defined(__clang__)
  fp.compiler = std::string("clang++ ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("g++ ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.cxx_flags = trim(PERFBENCH_CXX_FLAGS);
  fp.sanitized = fp.cxx_flags.find("-fsanitize") != std::string::npos;
#if defined(__SANITIZE_ADDRESS__)
  fp.sanitized = true;
#endif
  if (fp.build_type != "Release" && fp.build_type != "RelWithDebInfo")
    fp.why_invalid = "build type '" + fp.build_type + "' is not optimized";
  if (fp.sanitized) {
    if (!fp.why_invalid.empty()) fp.why_invalid += "; ";
    fp.why_invalid += "sanitizer build (" + fp.cxx_flags + ")";
  }
  fp.valid_baseline = fp.why_invalid.empty();
  return fp;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += tscclock::strfmt("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string to_json(const Fingerprint& fp) {
  return "{\"cpu_model\": " + json_string(fp.cpu_model) +
         ", \"nproc\": " + std::to_string(fp.nproc) +
         ", \"compiler\": " + json_string(fp.compiler) +
         ", \"build_type\": " + json_string(fp.build_type) +
         ", \"cxx_flags\": " + json_string(fp.cxx_flags) +
         ", \"sanitized\": " + (fp.sanitized ? "true" : "false") +
         ", \"valid_baseline\": " + (fp.valid_baseline ? "true" : "false") +
         "}";
}

}  // namespace perfbench
